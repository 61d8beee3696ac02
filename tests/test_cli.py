import pytest

from repro.cli import main


@pytest.fixture(scope="module", autouse=True)
def _memoized_characterization():
    """Share characterizations across the module's ``main([...])`` calls.

    Every CLI invocation re-characterizes the full library (~2 s), which
    dominates this module's wall time. Characterization is a pure
    function of (technology, mode, cells) — ``repr(technology)`` is a
    complete, stable fingerprint (all fields are primitives or have
    value reprs) — so identical requests can share one result. The CLI
    behaves identically; only redundant recomputation is skipped.
    """
    import repro.characterization.characterizer as characterizer
    import repro.cli as cli

    real = characterizer.characterize_library
    cache = {}

    def memoized(library, technology, mode="analytical", cells=None,
                 **kwargs):
        if kwargs:  # non-default fit options: stay out of the way
            return real(library, technology, mode=mode, cells=cells,
                        **kwargs)
        key = (repr(technology), mode,
               tuple(cells) if cells is not None else None)
        if key not in cache:
            cache[key] = real(library, technology, mode=mode, cells=cells)
        return cache[key]

    patched = [(characterizer, real), (cli, cli.characterize_library)]
    for module, _ in patched:
        module.characterize_library = memoized
    try:
        yield
    finally:
        for module, original in patched:
            module.characterize_library = original


class TestEstimateCommand:
    def test_estimate_with_usage(self, capsys):
        code = main(["estimate", "--cells", "2000", "--width-mm", "0.2",
                     "--height-mm", "0.2",
                     "--usage", "INV_X1=0.5", "--usage", "NAND2_X1=0.5",
                     "--method", "linear"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean leakage" in out
        assert "99% quantile" in out

    def test_bad_usage_entry_is_reported(self, capsys):
        code = main(["estimate", "--cells", "100", "--width-mm", "0.1",
                     "--height-mm", "0.1", "--usage", "INV_X1:0.5"])
        assert code == 1
        assert "NAME=FRACTION" in capsys.readouterr().err

    def test_thermal_coupled_solve(self, capsys):
        code = main(["estimate", "--cells", "2048", "--width-mm", "1",
                     "--height-mm", "1",
                     "--usage", "INV_X1=0.6", "--usage", "NAND2_X1=0.4",
                     "--method", "linear", "--thermal",
                     "--package-resistance", "40",
                     "--power-scale", "400", "--ambient-c", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Thermal solve" in out
        assert "coupled" in out
        assert "converged     true" in out
        assert "feedback gain" in out

    def test_thermal_open_loop(self, capsys):
        code = main(["estimate", "--cells", "1024", "--width-mm", "0.5",
                     "--height-mm", "0.5", "--usage", "INV_X1=1.0",
                     "--method", "linear", "--thermal", "--open-loop"])
        assert code == 0
        out = capsys.readouterr().out
        assert "open loop" in out

    def test_thermal_knobs_require_thermal_flag(self, capsys):
        code = main(["estimate", "--cells", "100", "--width-mm", "0.1",
                     "--height-mm", "0.1", "--usage", "INV_X1=1.0",
                     "--power-scale", "10"])
        assert code == 1
        assert "--thermal" in capsys.readouterr().err

    def test_temperature_raises_leakage(self, capsys):
        args = ["estimate", "--cells", "1000", "--width-mm", "0.1",
                "--height-mm", "0.1", "--usage", "INV_X1=1.0",
                "--method", "linear"]
        main(args)
        cold = capsys.readouterr().out
        main(args + ["--temperature-c", "125"])
        hot = capsys.readouterr().out

        def mean_of(text):
            for line in text.splitlines():
                if "mean leakage" in line:
                    return float(line.split()[-1])
            raise AssertionError(text)

        assert mean_of(hot) > 5 * mean_of(cold)


class TestSweepCommand:
    BASE = ["sweep", "--cells", "1000", "--width-mm", "0.2",
            "--height-mm", "0.2", "--usage", "INV_X1=0.5",
            "--usage", "NAND2_X1=0.5", "--method", "linear"]

    def test_grid_table(self, capsys):
        code = main(self.BASE + [
            "--axis", "corr-length-mm=0.3,0.5,0.9",
            "--axis", "signal-probability=0.4,0.6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Batched sweep — 6 points" in out
        assert "correlation_length" in out
        assert "signal_probability" in out
        # The amortization ledger: one floorplan, three kernels.
        assert "chip_models=1" in out
        assert "rho_kernel_evaluations=3" in out

    def test_json_output_matches_library(self, capsys):
        import json as json_module
        code = main(self.BASE + ["--axis", "d2d-fraction=0.1,0.5",
                                 "--json"])
        assert code == 0
        document = json_module.loads(capsys.readouterr().out)
        assert document["shape"] == [2]
        assert len(document["estimates"]) == 2
        assert all(e["mean"] > 0 for e in document["estimates"])

    def test_matches_estimate_command(self, capsys):
        code = main(self.BASE + ["--axis", "cells=1000"])
        assert code == 0
        sweep_out = capsys.readouterr().out
        main(["estimate", "--cells", "1000", "--width-mm", "0.2",
              "--height-mm", "0.2", "--usage", "INV_X1=0.5",
              "--usage", "NAND2_X1=0.5", "--method", "linear"])
        single_out = capsys.readouterr().out

        def mean_of(text):
            for line in text.splitlines():
                if "mean leakage" in line:
                    return float(line.split()[-1])
            raise AssertionError(text)

        # Both tables print mA with four decimals; they must agree.
        row = [line for line in sweep_out.splitlines()
               if line.strip().startswith("1000")][0]
        sweep_mean_ma = float(row.split()[1])
        assert sweep_mean_ma == pytest.approx(mean_of(single_out),
                                              rel=1e-4, abs=1e-4)

    def test_bad_axis_is_reported(self, capsys):
        code = main(self.BASE + ["--axis", "frequency=1,2"])
        assert code == 1
        assert "unknown sweep axis" in capsys.readouterr().err


class TestCharacterizeRoundTrip:
    def test_characterize_then_estimate(self, tmp_path, capsys):
        char_path = str(tmp_path / "char.json")
        assert main(["characterize", "--out", char_path]) == 0
        capsys.readouterr()
        code = main(["estimate", "--cells", "1000", "--width-mm", "0.1",
                     "--height-mm", "0.1", "--usage", "INV_X1=1.0",
                     "--char", char_path, "--method", "linear"])
        assert code == 0
        assert "mean leakage" in capsys.readouterr().out

    def test_stale_characterization_fails_cleanly(self, tmp_path, capsys):
        char_path = str(tmp_path / "char.json")
        main(["characterize", "--out", char_path])
        capsys.readouterr()
        code = main(["estimate", "--cells", "100", "--width-mm", "0.1",
                     "--height-mm", "0.1", "--char", char_path,
                     "--sigma-l", "0.10"])
        assert code == 2
        assert "different technology" in capsys.readouterr().err


class TestCornersCommand:
    def test_corner_table(self, capsys):
        code = main(["corners", "--cells", "1000", "--width-mm", "0.1",
                     "--height-mm", "0.1", "--usage", "INV_X1=0.5",
                     "--usage", "NAND2_X1=0.5", "--method", "linear"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("FF", "TT", "SS"):
            assert name in out

        def mean_of(label):
            for line in out.splitlines():
                if line.strip().startswith(label):
                    return float(line.split()[2])
            raise AssertionError(out)

        assert mean_of("FF") > mean_of("SS") > mean_of("TT")


class TestWhatIfCommand:
    """Argument handling only — the wire round trip lives in
    tests/service/test_whatif.py."""

    def test_no_edits_is_an_error(self, capsys):
        code = main(["whatif", "--base", "a" * 64])
        assert code == 1
        assert "at least one edit" in capsys.readouterr().err

    def test_malformed_edit_json_is_reported(self, capsys):
        code = main(["whatif", "--base", "a" * 64,
                     "--edit", "{not json"])
        assert code == 1
        assert "JSON" in capsys.readouterr().err

    def test_malformed_swap_is_reported(self, capsys):
        code = main(["whatif", "--base", "a" * 64,
                     "--swap", "INV_X1"])
        assert code == 1
        assert "FROM:TO" in capsys.readouterr().err

    def test_bad_base_hash_is_reported(self, capsys):
        code = main(["whatif", "--base", "not-a-hash",
                     "--swap", "INV_X1:NAND2_X1:0.1"])
        assert code == 1
        assert "base" in capsys.readouterr().err

    def test_table_output_with_stubbed_client(self, capsys, monkeypatch):
        """Edit assembly + table rendering, no server needed."""
        import repro.service.client as client_module

        captured = {}

        class StubEstimate:
            n_cells = 4096
            method = "linear"
            mean = 1.5e-3
            std = 1.2e-4
            cv = 0.08
            details = {"delta": {"mode": "exact", "edits": 3,
                                 "moments_recomputed": 2,
                                 "lags_reused": 100}}

        class StubRemote:
            def __init__(self, url):
                captured["url"] = url

            def whatif(self, request, timeout=None):
                captured["request"] = request
                return StubEstimate()

        monkeypatch.setattr(client_module, "RemoteClient", StubRemote)
        code = main([
            "whatif", "--base", "a" * 64,
            "--edit", '{"type": "usage_histogram",'
                      ' "fractions": {"INV_X1": 1.0}}',
            "--swap", "INV_X1:NAND2_X1:0.25",
            "--cells", "4096", "--width-mm", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean leakage" in out
        assert "delta mode" in out and "exact" in out
        assert "moments recomputed" in out
        request = captured["request"]
        assert len(request.edits) == 3
        assert request.edits[1]["fraction"] == 0.25
        # --width-mm converts millimetres to metres on the wire.
        assert request.edits[2]["width"] == pytest.approx(1e-3)

    def test_fallback_row_with_stubbed_client(self, capsys, monkeypatch):
        import repro.service.client as client_module

        class StubEstimate:
            n_cells = 600_000
            method = "integral2d"
            mean = 2.0e-3
            std = 1.0e-4
            cv = 0.05
            details = {"delta": {"fallback": True,
                                 "fallback_reason": "incompatible"}}

        class StubRemote:
            def __init__(self, url):
                pass

            def whatif(self, request, timeout=None):
                return StubEstimate()

        monkeypatch.setattr(client_module, "RemoteClient", StubRemote)
        code = main(["whatif", "--base", "b" * 64,
                     "--swap", "INV_X1:NAND2_X1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta fallback" in out
        assert "incompatible" in out


class TestIscas85Command:
    def test_c432_flow(self, capsys):
        assert main(["iscas85", "c432"]) == 0
        out = capsys.readouterr().out
        assert "std error" in out
        assert "160" in out

    def test_unknown_circuit(self, capsys):
        assert main(["iscas85", "c9999"]) == 1
        assert "unknown ISCAS85" in capsys.readouterr().err


class TestExitCodes:
    """0 on success, 1 on a user or configuration error, 2 on an
    internal error."""

    @staticmethod
    def _stub_whatif(monkeypatch, error):
        import repro.service.client as client_module

        class StubRemote:
            def __init__(self, url):
                pass

            def whatif(self, request, timeout=None):
                raise error

        monkeypatch.setattr(client_module, "RemoteClient", StubRemote)
        return main(["whatif", "--base", "c" * 64,
                     "--swap", "INV_X1:NAND2_X1"])

    def test_configuration_error_exits_1(self, capsys):
        code = main(["estimate", "--cells", "100", "--width-mm", "0.1",
                     "--height-mm", "0.1", "--usage", "INV_X1:0.5"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_netlist_error_exits_1(self, capsys):
        assert main(["iscas85", "c9999"]) == 1
        assert "unknown ISCAS85" in capsys.readouterr().err

    def test_unknown_base_exits_1(self, capsys, monkeypatch):
        from repro.exceptions import UnknownBaseError

        code = self._stub_whatif(monkeypatch,
                                 UnknownBaseError("no such base"))
        assert code == 1
        assert "no such base" in capsys.readouterr().err

    def test_other_library_error_exits_2(self, capsys, monkeypatch):
        from repro.exceptions import EstimationError

        code = self._stub_whatif(monkeypatch,
                                 EstimationError("engine failed"))
        assert code == 2
        assert "error: engine failed" in capsys.readouterr().err

    def test_unexpected_exception_exits_2_with_traceback(self, capsys,
                                                         monkeypatch):
        code = self._stub_whatif(monkeypatch, RuntimeError("bug"))
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: bug" in err
