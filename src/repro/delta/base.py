"""The :class:`BaseEstimate` artifact — reusable state of a full estimate.

A base snapshots everything a fresh ``estimate("linear")`` computed
that later what-if edits can reuse:

* the **lag geometry** and per-lag correlation values of eq. (16)-(17)
  (pure functions of the floorplan and the correlation model);
* the **occupancy ledgers** those lags reduce through — in exact mode
  the grid-weight vector ``w`` with ``sum_lag n_lag * interp(rho_lag)
  = w @ values`` (``np.interp`` is piecewise linear, so the per-lag hat
  weights aggregate into one usage-independent 65-vector), in
  simplified mode the scalar ``s_rho = sum_lag n_lag * rho_lag``;
* the **RG mixture moments** keyed by (usage, p, weights): the
  *unpruned* component arrays, the quadratic-form summaries
  ``vq_g = alpha^T M_g alpha`` and ``U_g = M_g alpha`` of
  :mod:`repro.delta.moments`, and the per-cell state-probability table
  used to turn edited usage fractions back into component weights.

With these, :func:`repro.delta.engine.estimate_delta` updates mean and
variance in ``o(n_affected)``: a usage edit touches only the ``|S|``
components whose weight changed, a floorplan edit touches only the lag
ledger (``O(n_lags)``, never the RG moments).

Bases export/import through :meth:`to_dict`/:meth:`from_dict`. The
artifact stores every numeric array; the live characterization and
correlation objects are *references*, re-attached at import time —
without them, edits that need new cell characterizations or a re-kerneled
floorplan raise :class:`~repro.exceptions.DeltaIncompatibleError`
(the service maps that to a full-recompute fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.characterization.fitting import LeakageFit
from repro.core.api import (
    FullChipLeakageEstimator,
    LeakageEstimate,
    resolve_auto_method,
)
from repro.core.chip_model import FullChipModel
from repro.core.estimators.linear import LagGeometry
from repro.delta.moments import component_params, quadratic_products
from repro.exceptions import DeltaIncompatibleError, EstimationError
from repro.obs import span

#: Schema version of the exported base artifact (2: folded lag ``rho``).
#: A change of kernel rounding alone (``rho`` moving by an ulp) keeps
#: the layout and the version.
BASE_SCHEMA_VERSION = 2


def _interp_weights(grid: np.ndarray, rho: np.ndarray,
                    counts: np.ndarray, zero_lag) -> np.ndarray:
    """Aggregate per-lag hat-function weights onto the rho grid.

    ``np.interp(r, grid, values)`` is ``(1-t)*values[i] + t*values[i+1]``
    with ``i`` the bracketing interval; summed against the multiplicity
    table this collapses to one weight per grid node. The zero lag is
    excluded — it carries the full RG variance, accounted separately as
    ``n_sites * variance``.
    """
    flat_rho = np.asarray(rho, dtype=float).ravel()
    flat_counts = np.asarray(counts, dtype=float).ravel().copy()
    flat_counts[np.ravel_multi_index(zero_lag, rho.shape)] = 0.0
    idx = np.clip(np.searchsorted(grid, flat_rho, side="right") - 1,
                  0, grid.shape[0] - 2)
    t = (flat_rho - grid[idx]) / (grid[idx + 1] - grid[idx])
    weights = np.zeros_like(grid)
    np.add.at(weights, idx, flat_counts * (1.0 - t))
    np.add.at(weights, idx + 1, flat_counts * t)
    return weights


def _rho_sum(rho: np.ndarray, counts: np.ndarray, zero_lag) -> float:
    """``sum_lag n_lag * rho_lag`` over distinct-site lags."""
    masked = np.asarray(rho, dtype=float).copy()
    masked[zero_lag] = 0.0
    return float(np.sum(counts * masked))


@dataclass
class BaseEstimate:
    """Snapshot of a full linear-transform estimate, ready for deltas.

    Build with :meth:`build` (scenario parameters) or
    :meth:`from_estimator` (an already-constructed estimator). All
    arrays are private to the artifact — edits never mutate a base, so
    one base serves arbitrarily many what-if evaluations.
    """

    chip: FullChipModel
    estimate: LeakageEstimate
    signal_probability: float
    vt_multiplier: float
    simplified: bool
    mu_l: float
    sigma_l: float
    fractions: Dict[str, float]
    labels: Tuple[Tuple[str, str], ...]
    alphas: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    fits: Optional[Tuple[LeakageFit, ...]]
    cell_index: Dict[str, np.ndarray]
    cell_probs: Dict[str, np.ndarray]
    rho: np.ndarray
    grid: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    k: Optional[np.ndarray] = None
    vq: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    s_rho: Optional[float] = None
    characterization: Any = None
    correlation: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)

    # -- derived scalars ---------------------------------------------------

    @property
    def rg_mean(self) -> float:
        return float(self.alphas @ self.means)

    @property
    def rg_second(self) -> float:
        return float(self.alphas @ (self.stds ** 2 + self.means ** 2))

    @property
    def mean_of_stds(self) -> float:
        return float(self.alphas @ self.stds)

    @property
    def n_components(self) -> int:
        return int(self.alphas.shape[0])

    @property
    def n_lags(self) -> int:
        return int(self.rho.size)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, characterization, usage, n_cells: int, width: float,
              height: float, *, signal_probability: float = 0.5,
              correlation=None, simplified_correlation: Optional[bool] = None,
              state_weights=None,
              components=None) -> "BaseEstimate":
        """Run a fresh estimate and snapshot it as a base artifact.

        ``components`` optionally supplies a prebuilt
        :class:`~repro.core.api.RGComponents` bundle (it must match the
        scenario), skipping the mixture expansion of the fresh pass.
        """
        estimator = FullChipLeakageEstimator(
            characterization, usage, n_cells, width, height,
            signal_probability=signal_probability,
            correlation=correlation,
            simplified_correlation=simplified_correlation,
            state_weights=state_weights, components=components)
        return cls.from_estimator(estimator, state_weights=state_weights)

    @classmethod
    def from_estimator(cls, estimator: FullChipLeakageEstimator,
                       estimate: Optional[LeakageEstimate] = None,
                       state_weights=None) -> "BaseEstimate":
        """Snapshot an estimator (running ``estimate("linear")`` if no
        fresh estimate is supplied)."""
        chip = estimator.chip
        if resolve_auto_method(chip.n_sites) != "linear":
            raise DeltaIncompatibleError(
                f"delta estimation rides the eq. (17) lag transform, "
                f"which auto-mode reserves for grids up to 250,000 "
                f"sites; this chip has {chip.n_sites}")
        with span("delta.base_estimate"):
            if estimate is None:
                estimate = estimator.estimate("linear")
            elif estimate.method != "linear":
                raise EstimationError(
                    "base snapshots require a linear-transform estimate, "
                    f"got method={estimate.method!r}")

        technology = estimator.characterization.technology
        mu_l = float(technology.length.nominal)
        sigma_l = float(technology.length.sigma)
        simplified = bool(estimator.rg_correlation.simplified)

        with span("delta.base_mixture"):
            arrays = _expand_unpruned(estimator.characterization,
                                      estimator.usage,
                                      estimator.signal_probability,
                                      state_weights)
            (labels, alphas, means, stds, fits,
             cell_index, cell_probs) = arrays

        grid = a = h = k = vq = u = None
        if not simplified:
            if fits is None:
                raise DeltaIncompatibleError(
                    "exact-mode base requires (a, b, c) fits for every "
                    "mixture component")
            grid = np.array(estimator.rg_correlation.covariance_grid)
            with span("delta.base_moments", q=alphas.shape[0]):
                a, h, k = component_params(fits, mu_l, sigma_l)
                vq, u, _, _ = quadratic_products(a, h, k, grid, alphas)

        with span("delta.base_geometry"):
            geometry = LagGeometry(chip.rows, chip.cols, chip.pitch_x,
                                   chip.pitch_y)
            rho = geometry.rho(estimator.correlation)
            if simplified:
                w, s_rho = None, _rho_sum(rho, geometry.counts,
                                          geometry.zero_lag)
            else:
                w = _interp_weights(grid, rho, geometry.counts,
                                    geometry.zero_lag)
                s_rho = None

        return cls(
            chip=chip, estimate=estimate,
            signal_probability=float(estimator.signal_probability),
            vt_multiplier=float(estimator.components.vt_multiplier),
            simplified=simplified, mu_l=mu_l, sigma_l=sigma_l,
            fractions=dict(estimator.usage.items()),
            labels=labels, alphas=alphas, means=means, stds=stds,
            fits=fits, cell_index=cell_index, cell_probs=cell_probs,
            rho=rho, grid=grid, a=a, h=h, k=k, vq=vq, u=u, w=w,
            s_rho=s_rho, characterization=estimator.characterization,
            correlation=estimator.correlation)

    # -- export / import ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON artifact (arrays as lists, no live references)."""
        def listify(array):
            return None if array is None else np.asarray(array).tolist()

        return {
            "schema_version": BASE_SCHEMA_VERSION,
            "chip": {"n_cells": self.chip.n_cells,
                     "width": self.chip.width, "height": self.chip.height,
                     "rows": self.chip.rows, "cols": self.chip.cols},
            "estimate": self.estimate.to_dict(),
            "signal_probability": self.signal_probability,
            "vt_multiplier": self.vt_multiplier,
            "simplified": self.simplified,
            "mu_l": self.mu_l, "sigma_l": self.sigma_l,
            "fractions": {name: float(value)
                          for name, value in self.fractions.items()},
            "labels": [[cell, state] for cell, state in self.labels],
            "alphas": listify(self.alphas),
            "means": listify(self.means),
            "stds": listify(self.stds),
            "fits": None if self.fits is None else [
                [fit.a, fit.b, fit.c, fit.rms_log_error]
                for fit in self.fits],
            "cell_index": {name: listify(idx)
                           for name, idx in self.cell_index.items()},
            "cell_probs": {name: listify(probs)
                           for name, probs in self.cell_probs.items()},
            "rho": listify(self.rho),
            "grid": listify(self.grid),
            "vq": listify(self.vq),
            "u": listify(self.u),
            "w": listify(self.w),
            "s_rho": self.s_rho,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any], characterization=None,
                  correlation=None) -> "BaseEstimate":
        """Rebuild a base from :meth:`to_dict` output.

        ``characterization`` / ``correlation`` re-attach the live
        references the artifact cannot carry; without them the base
        still serves usage edits over its existing cells, while edits
        needing new characterizations or correlation re-kernels raise
        :class:`DeltaIncompatibleError`. When a characterization is
        given and no correlation, the technology's total correlation is
        assumed (the estimator default).
        """
        def arr(value):
            return None if value is None else np.asarray(value, dtype=float)

        try:
            version = int(document.get("schema_version", 0))
            if version != BASE_SCHEMA_VERSION:
                raise EstimationError(
                    f"unsupported base artifact schema v{version}")
            chip_doc = document["chip"]
            chip = FullChipModel(n_cells=int(chip_doc["n_cells"]),
                                 width=float(chip_doc["width"]),
                                 height=float(chip_doc["height"]),
                                 rows=int(chip_doc["rows"]),
                                 cols=int(chip_doc["cols"]))
            fits_doc = document.get("fits")
            fits = None if fits_doc is None else tuple(
                LeakageFit(*map(float, entry)) for entry in fits_doc)
            if correlation is None and characterization is not None:
                correlation = \
                    characterization.technology.total_correlation
            return cls(
                chip=chip,
                estimate=LeakageEstimate.from_dict(document["estimate"]),
                signal_probability=float(document["signal_probability"]),
                vt_multiplier=float(document["vt_multiplier"]),
                simplified=bool(document["simplified"]),
                mu_l=float(document["mu_l"]),
                sigma_l=float(document["sigma_l"]),
                fractions={str(name): float(value) for name, value
                           in document["fractions"].items()},
                labels=tuple((str(cell), str(state))
                             for cell, state in document["labels"]),
                alphas=arr(document["alphas"]),
                means=arr(document["means"]),
                stds=arr(document["stds"]),
                fits=fits,
                cell_index={str(name): np.asarray(idx, dtype=int)
                            for name, idx
                            in document["cell_index"].items()},
                cell_probs={str(name): arr(probs) for name, probs
                            in document["cell_probs"].items()},
                rho=arr(document["rho"]),
                grid=arr(document.get("grid")),
                a=None, h=None, k=None,
                vq=arr(document.get("vq")),
                u=arr(document.get("u")),
                w=arr(document.get("w")),
                s_rho=(None if document.get("s_rho") is None
                       else float(document["s_rho"])),
                characterization=characterization,
                correlation=correlation,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EstimationError(
                f"not a serialized BaseEstimate: {exc}") from exc

    def ensure_exact_params(self) -> None:
        """Recompute ``(a, h, k)`` after an import dropped them."""
        if self.simplified or self.a is not None:
            return
        if self.fits is None:
            raise DeltaIncompatibleError(
                "imported base lacks component fits; cannot extend the "
                "exact cross-moment state")
        self.a, self.h, self.k = component_params(self.fits, self.mu_l,
                                                  self.sigma_l)


def _expand_unpruned(characterization, usage, p: float, state_weights):
    """Expand the usage histogram keeping *every* component.

    Mirrors :func:`repro.core.random_gate.expand_mixture` but skips the
    negligible-weight prune: delta updates need zero-weight components
    addressable (an edit may raise their weight), and the pruned mass
    (``<= 1e-12`` per component) is far inside the documented delta
    tolerance.
    """
    labels, alphas, means, stds, fits = [], [], [], [], []
    cell_index: Dict[str, np.ndarray] = {}
    cell_probs: Dict[str, np.ndarray] = {}
    all_fits = True
    for cell_name, fraction in usage.items():
        if cell_name not in characterization:
            raise EstimationError(
                f"usage references uncharacterized cell {cell_name!r}")
        cell_char = characterization[cell_name]
        if state_weights is not None and cell_name in state_weights:
            state_probs = np.asarray(state_weights[cell_name], dtype=float)
        else:
            state_probs = cell_char.cell.state_probabilities(p)
        start = len(labels)
        for state_char, prob in zip(cell_char.states, state_probs):
            labels.append((cell_name, state_char.state_label))
            alphas.append(fraction * prob)
            means.append(state_char.mean)
            stds.append(state_char.std)
            if state_char.fit is None:
                all_fits = False
            else:
                fits.append(state_char.fit)
        cell_index[cell_name] = np.arange(start, len(labels))
        cell_probs[cell_name] = np.asarray(state_probs, dtype=float)
    return (tuple(labels), np.array(alphas), np.array(means),
            np.array(stds), tuple(fits) if all_fits else None,
            cell_index, cell_probs)


def cell_components(characterization, cell_name: str, p: float):
    """Component rows for a cell *not* in the base mixture.

    Returns ``(state_labels, probs, means, stds, fits)`` pulled from the
    characterization — the extension a :class:`CellSwapEdit` to a new
    cell type appends to the base arrays.
    """
    if characterization is None:
        raise DeltaIncompatibleError(
            f"edit introduces cell {cell_name!r} not in the base "
            "mixture, and the base has no characterization attached")
    if cell_name not in characterization:
        raise EstimationError(
            f"edit references uncharacterized cell {cell_name!r}")
    cell_char = characterization[cell_name]
    probs = cell_char.cell.state_probabilities(p)
    state_labels = tuple(state.state_label for state in cell_char.states)
    means = np.array([state.mean for state in cell_char.states])
    stds = np.array([state.std for state in cell_char.states])
    fits = tuple(state.fit for state in cell_char.states)
    if any(fit is None for fit in fits):
        fits = None
    return state_labels, np.asarray(probs, dtype=float), means, stds, fits
