from repro.cli import main
from repro.selfcheck import run_selfcheck


class TestSelfcheck:
    def test_all_properties_hold(self, capsys):
        assert run_selfcheck(verbose=True)
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 11
        assert "[FAIL]" not in out
        assert "self-check: OK" in out

    def test_cli_exit_code(self, capsys):
        assert main(["selfcheck"]) == 0
        assert "self-check: OK" in capsys.readouterr().out

    def test_crashing_check_reports_fail(self, monkeypatch, capsys):
        import repro.selfcheck as module

        def broken_checks():
            return [("always fine", lambda: True),
                    ("explodes", lambda: 1 / 0)]

        monkeypatch.setattr(module, "_checks", broken_checks)
        assert not module.run_selfcheck(verbose=True)
        out = capsys.readouterr().out
        assert "[FAIL] explodes (ZeroDivisionError" in out
        assert "self-check: FAILED" in out
