"""Library characterization façade.

Produces, for every cell state in a library, the leakage mean and
standard deviation — either by Monte Carlo or by the analytical
fit-plus-MGF route — and bundles the results for the Random-Gate layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.cells.cell import Cell
from repro.cells.library import StandardCellLibrary
from repro.characterization.fitting import (
    LeakageFit,
    fit_leakage_batch,
    sample_lengths,
)
from repro.characterization.moments import mgf_moments
from repro.characterization.montecarlo import mc_state_moments
from repro.devices.mosfet import DeviceModel
from repro.exceptions import CharacterizationError
from repro.process.technology import Technology
from repro.spice.solver import solve_dc_batch

#: Supported characterization modes.
ANALYTICAL = "analytical"
MONTECARLO = "montecarlo"


@dataclass(frozen=True)
class StateCharacterization:
    """Leakage statistics of one cell state.

    ``fit`` is the ``(a, b, c)`` functional model — present in analytical
    mode, ``None`` in Monte-Carlo mode (which is exactly why the paper
    introduces the simplified ``rho_leak = rho_L`` assumption for MC-mode
    full-chip estimation, Section 3.1.2).
    """

    cell_name: str
    state_label: str
    mean: float
    std: float
    fit: Optional[LeakageFit]


@dataclass(frozen=True)
class CellCharacterization:
    """All characterized states of one cell."""

    cell: Cell
    states: Tuple[StateCharacterization, ...]

    def moments_at(self, p: float) -> Tuple[float, float]:
        """Effective ``(mean, std)`` of the cell's leakage when its state
        is drawn according to signal probability ``p``.

        The state is treated as an independent mixture dimension (the
        same construction as the Random Gate's mixture over cell types),
        so the second moment is the probability-weighted average of the
        per-state second moments.
        """
        weights = self.cell.state_probabilities(p)
        means = np.array([s.mean for s in self.states])
        stds = np.array([s.std for s in self.states])
        mean = float(weights @ means)
        second = float(weights @ (stds ** 2 + means ** 2))
        return mean, math.sqrt(max(0.0, second - mean * mean))


def characterization_inputs(technology: Technology) -> Tuple:
    """Everything of ``technology`` that characterization reads.

    Every field but the WID correlation and the D2D/WID split of the
    channel length, of which only the nominal and the total sigma are
    read (eqs. (1)-(5)); the split and the correlation enter only at
    chip level. Technologies with equal inputs characterize bit for
    bit alike.
    """
    return (technology.length.nominal, technology.length.sigma) + tuple(
        getattr(technology, field.name) for field in fields(technology)
        if field.name not in ("length", "wid_correlation"))


class LibraryCharacterization:
    """Characterized standard-cell library.

    Maps every ``(cell, state)`` to a :class:`StateCharacterization` and
    exposes per-cell effective moments under a signal probability.
    """

    def __init__(self, library: StandardCellLibrary, technology: Technology,
                 mode: str, cells: Dict[str, CellCharacterization]) -> None:
        if mode not in (ANALYTICAL, MONTECARLO):
            raise CharacterizationError(f"unknown mode {mode!r}")
        self.library = library
        self.technology = technology
        self.mode = mode
        self._cells = dict(cells)

    def __getitem__(self, cell_name: str) -> CellCharacterization:
        try:
            return self._cells[cell_name]
        except KeyError:
            raise KeyError(
                f"cell {cell_name!r} was not characterized") from None

    def __contains__(self, cell_name: str) -> bool:
        return cell_name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cell_names(self) -> Tuple[str, ...]:
        return tuple(self._cells)

    @property
    def has_fits(self) -> bool:
        """Whether ``(a, b, c)`` triplets are available (analytical mode)."""
        return self.mode == ANALYTICAL

    def state_table(self) -> Iterable[StateCharacterization]:
        """Iterate over every characterized state."""
        for cell_char in self._cells.values():
            yield from cell_char.states

    def bound_to(self, technology: Technology) -> "LibraryCharacterization":
        """This cell table bound to ``technology``.

        Chip-level code reads the WID correlation and the D2D/WID split
        from :attr:`technology`; this rebinds them without
        re-characterizing. ``technology`` must agree on every
        :func:`characterization_inputs` entry.
        """
        if (characterization_inputs(technology)
                != characterization_inputs(self.technology)):
            raise CharacterizationError(
                "cannot rebind a characterization to a technology that "
                "characterizes differently (only the WID correlation "
                "and the D2D/WID split may differ)")
        return LibraryCharacterization(self.library, technology, self.mode,
                                       self._cells)


def characterize_library(
    library: StandardCellLibrary,
    technology: Technology,
    mode: str = ANALYTICAL,
    cells: Optional[Sequence[str]] = None,
    fit_points: int = 9,
    n_samples: int = 2000,
    rng: Optional[np.random.Generator] = None,
    include_gate_leakage: bool = False,
) -> LibraryCharacterization:
    """Characterize (a subset of) a standard-cell library.

    Parameters
    ----------
    library:
        The cell library.
    technology:
        Process technology; the *total* channel-length sigma (D2D + WID)
        is used, since an individual gate sees both components.
    mode:
        ``"analytical"`` (deterministic L sweep, fit, exact moments) or
        ``"montecarlo"`` (sampled moments, no fit).
    cells:
        Optional subset of cell names; defaults to the whole library.
    fit_points:
        Number of deterministic L points for the analytical fit.
    n_samples:
        Monte-Carlo sample count per state (MC mode).
    rng:
        Random generator for MC mode.
    include_gate_leakage:
        Also account for gate-oxide tunneling in every state's leakage —
        an extension beyond the paper's subthreshold-only model.
    """
    model = DeviceModel(technology)
    mu_l = technology.length.nominal
    sigma_l = technology.length.sigma
    names = library.names if cells is None else tuple(cells)
    rng = np.random.default_rng(1234) if rng is None else rng

    if mode not in (ANALYTICAL, MONTECARLO):
        raise CharacterizationError(f"unknown mode {mode!r}")
    if mode == ANALYTICAL:
        # Every state shares the deterministic lengths: one batched
        # solve and one batched fit.
        lengths = sample_lengths(mu_l, sigma_l, fit_points)
        pairs = [(library[name], state) for name in names
                 for state in library[name].states]
        solutions = solve_dc_batch(
            [(cell.netlist, state.nodes) for cell, state in pairs],
            model, lengths, include_gate_leakage=include_gate_leakage)
        fits = iter(fit_leakage_batch(
            lengths,
            np.array([solution.leakage for solution in solutions]
                     ).reshape(len(pairs), lengths.size),
            names=[f"{cell.name} state {state.label}"
                   for cell, state in pairs]))

    table: Dict[str, CellCharacterization] = {}
    for name in names:
        cell = library[name]
        state_chars = []
        for state in cell.states:
            if mode == ANALYTICAL:
                fit = next(fits)
                mean, std = mgf_moments(fit.a, fit.b, fit.c, mu_l, sigma_l)
            else:
                fit = None
                mean, std = mc_state_moments(
                    cell, state, model, n_samples=n_samples, rng=rng,
                    include_gate_leakage=include_gate_leakage)
            state_chars.append(StateCharacterization(
                cell_name=name, state_label=state.label,
                mean=mean, std=std, fit=fit))
        table[name] = CellCharacterization(cell=cell,
                                           states=tuple(state_chars))
    return LibraryCharacterization(library, technology, mode, table)
