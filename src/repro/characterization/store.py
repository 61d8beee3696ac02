"""Persistence for library characterizations.

Characterization is the expensive step of the flow (especially in
Monte-Carlo mode), and in a production setting it is done once per
process corner and shipped alongside the library — the role Liberty
files play for timing. This module serializes a
:class:`LibraryCharacterization` to a versioned JSON document and loads
it back, validating that the target library and technology still match.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.cells.library import StandardCellLibrary
from repro.characterization.characterizer import (
    CellCharacterization,
    LibraryCharacterization,
    StateCharacterization,
)
from repro.characterization.fitting import LeakageFit
from repro.exceptions import CharacterizationError
from repro.process.technology import Technology

_FORMAT_VERSION = 1


def _technology_fingerprint(technology: Technology) -> Dict[str, float]:
    """The technology facts the stored moments depend on."""
    return {
        "name": technology.name,
        "vdd": technology.vdd,
        "l_nominal": technology.length.nominal,
        "l_sigma": technology.length.sigma,
        "vt_n": technology.vt.nominal_n,
        "vt_p": technology.vt.nominal_p,
        "swing_factor": technology.subthreshold_swing_factor,
        "dibl": technology.dibl,
        "body_effect": technology.body_effect,
        "i0_per_width": technology.i0_per_width,
        "temperature": technology.temperature,
    }


def characterization_document(
        characterization: LibraryCharacterization) -> Dict[str, Any]:
    """The JSON-ready document :func:`dump_characterization` dumps."""
    cells = {}
    for name in characterization.cell_names:
        cell_char = characterization[name]
        states = []
        for state in cell_char.states:
            record = {
                "label": state.state_label,
                "mean": state.mean,
                "std": state.std,
            }
            if state.fit is not None:
                record["fit"] = {
                    "a": state.fit.a, "b": state.fit.b, "c": state.fit.c,
                    "rms_log_error": state.fit.rms_log_error,
                }
            states.append(record)
        cells[name] = states
    return {
        "format": "repro-characterization",
        "version": _FORMAT_VERSION,
        "mode": characterization.mode,
        "technology": _technology_fingerprint(characterization.technology),
        "cells": cells,
    }


def dump_characterization(characterization: LibraryCharacterization) -> str:
    """Serialize to a JSON string."""
    return json.dumps(characterization_document(characterization), indent=1)


def save_characterization(characterization: LibraryCharacterization,
                          path: str) -> None:
    """Write the characterization to ``path`` as JSON."""
    with open(path, "w") as handle:
        handle.write(dump_characterization(characterization))


def parse_characterization(text: str, library: StandardCellLibrary,
                           technology: Technology,
                           strict: bool = True) -> LibraryCharacterization:
    """Rebuild a characterization from its JSON form.

    Parameters
    ----------
    text:
        JSON produced by :func:`dump_characterization`.
    library / technology:
        The objects the stored data must attach to. Cell names and state
        counts are always checked; with ``strict=True`` (default) the
        technology fingerprint must also match, guarding against stale
        characterizations after a process retarget.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CharacterizationError(f"not a characterization file: {exc}")
    if document.get("format") != "repro-characterization":
        raise CharacterizationError("not a repro characterization document")
    if document.get("version") != _FORMAT_VERSION:
        raise CharacterizationError(
            f"unsupported characterization version {document.get('version')!r}")

    if strict:
        stored = document["technology"]
        current = _technology_fingerprint(technology)
        mismatched = {key for key in current
                      if not _close(stored.get(key), current[key])}
        if mismatched:
            raise CharacterizationError(
                "stored characterization was made for a different "
                f"technology (fields differ: {sorted(mismatched)})")

    table: Dict[str, CellCharacterization] = {}
    for name, states in document["cells"].items():
        if name not in library:
            raise CharacterizationError(
                f"stored cell {name!r} is not in the target library")
        cell = library[name]
        if len(states) != cell.n_states:
            raise CharacterizationError(
                f"{name}: stored state count {len(states)} != library "
                f"state count {cell.n_states}")
        state_chars = []
        for record, cell_state in zip(states, cell.states):
            if record["label"] != cell_state.label:
                raise CharacterizationError(
                    f"{name}: state labels diverge "
                    f"({record['label']!r} vs {cell_state.label!r})")
            fit = None
            if "fit" in record:
                fit = LeakageFit(a=record["fit"]["a"], b=record["fit"]["b"],
                                 c=record["fit"]["c"],
                                 rms_log_error=record["fit"]["rms_log_error"])
            state_chars.append(StateCharacterization(
                cell_name=name, state_label=record["label"],
                mean=record["mean"], std=record["std"], fit=fit))
        table[name] = CellCharacterization(cell=cell,
                                           states=tuple(state_chars))
    return LibraryCharacterization(library, technology, document["mode"],
                                   table)


def load_characterization(path: str, library: StandardCellLibrary,
                          technology: Technology,
                          strict: bool = True) -> LibraryCharacterization:
    """Read a characterization JSON file from disk."""
    with open(path) as handle:
        return parse_characterization(handle.read(), library, technology,
                                      strict=strict)


def _close(a, b, rel: float = 1e-9) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if a is None or b is None:
        return False
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-30)
