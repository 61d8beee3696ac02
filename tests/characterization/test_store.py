import json

import pytest

from repro.characterization import (
    characterization_document,
    dump_characterization,
    load_characterization,
    parse_characterization,
    save_characterization,
)
from repro.exceptions import CharacterizationError
from repro.process import synthetic_90nm


class TestRoundTrip:
    def test_values_survive(self, small_characterization, library,
                            technology):
        text = dump_characterization(small_characterization)
        loaded = parse_characterization(text, library, technology)
        assert loaded.mode == small_characterization.mode
        assert loaded.cell_names == small_characterization.cell_names
        for name in loaded.cell_names:
            for a, b in zip(loaded[name].states,
                            small_characterization[name].states):
                assert a.mean == b.mean
                assert a.std == b.std
                assert a.fit.b == b.fit.b

    def test_document_equals_the_json_round_trip(self,
                                                 small_characterization):
        """The service caches the document itself as the payload; it
        must equal what a dump-and-load would have produced."""
        document = characterization_document(small_characterization)
        assert document == json.loads(
            dump_characterization(small_characterization))
        assert json.dumps(document, indent=1) == dump_characterization(
            small_characterization)

    def test_estimates_identical_after_reload(self, small_characterization,
                                              library, technology):
        from repro.core import CellUsage, FullChipLeakageEstimator
        text = dump_characterization(small_characterization)
        loaded = parse_characterization(text, library, technology)
        usage = CellUsage({"INV_X1": 0.5, "NAND2_X1": 0.5})
        before = FullChipLeakageEstimator(
            small_characterization, usage, 1000, 1e-4, 1e-4
        ).estimate("linear")
        after = FullChipLeakageEstimator(
            loaded, usage, 1000, 1e-4, 1e-4).estimate("linear")
        assert after.mean == before.mean
        assert after.std == before.std

    def test_file_round_trip(self, small_characterization, library,
                             technology, tmp_path):
        path = str(tmp_path / "char.json")
        save_characterization(small_characterization, path)
        loaded = load_characterization(path, library, technology)
        assert len(loaded) == len(small_characterization)

    def test_mc_mode_without_fits(self, library, technology, rng):
        from repro.characterization import characterize_library
        mc = characterize_library(library, technology, mode="montecarlo",
                                  cells=["INV_X1"], n_samples=200, rng=rng)
        loaded = parse_characterization(dump_characterization(mc), library,
                                        technology)
        assert not loaded.has_fits
        assert loaded["INV_X1"].states[0].fit is None


class TestValidation:
    def test_rejects_garbage(self, library, technology):
        with pytest.raises(CharacterizationError):
            parse_characterization("not json {", library, technology)

    def test_rejects_foreign_document(self, library, technology):
        with pytest.raises(CharacterizationError):
            parse_characterization('{"format": "something-else"}', library,
                                   technology)

    def test_rejects_stale_technology(self, small_characterization, library):
        other = synthetic_90nm(relative_sigma_l=0.10)
        text = dump_characterization(small_characterization)
        with pytest.raises(CharacterizationError):
            parse_characterization(text, library, other)

    def test_non_strict_allows_technology_drift(self, small_characterization,
                                                library):
        other = synthetic_90nm(relative_sigma_l=0.10,
                               correlation_length=0.5e-3)
        text = dump_characterization(small_characterization)
        loaded = parse_characterization(text, library, other, strict=False)
        assert len(loaded) == len(small_characterization)

    def test_rejects_unknown_cell(self, small_characterization, library,
                                  technology):
        document = json.loads(dump_characterization(small_characterization))
        document["cells"]["GHOST_X1"] = document["cells"]["INV_X1"]
        with pytest.raises(CharacterizationError):
            parse_characterization(json.dumps(document), library, technology)

    def test_rejects_state_mismatch(self, small_characterization, library,
                                    technology):
        document = json.loads(dump_characterization(small_characterization))
        document["cells"]["INV_X1"] = document["cells"]["INV_X1"][:1]
        with pytest.raises(CharacterizationError):
            parse_characterization(json.dumps(document), library, technology)

    def test_rejects_future_version(self, small_characterization, library,
                                    technology):
        document = json.loads(dump_characterization(small_characterization))
        document["version"] = 99
        with pytest.raises(CharacterizationError):
            parse_characterization(json.dumps(document), library, technology)
