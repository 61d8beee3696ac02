"""Incremental estimation: apply typed edits to a base in o(n_affected).

:func:`estimate_delta` is a *pure function* of ``(base, edits)`` — it
never mutates the base, so one artifact serves an arbitrary what-if
storm. Edits fold into one final scenario (usage edits compose into a
final histogram, resizes into a final floorplan), then exactly two
incremental updates run:

* **mixture update** — the quadratic form ``vq_g = alpha^T M_g alpha``
  moves by ``2 (M alpha)[S] . delta + delta^T M_SS delta`` where ``S``
  is the edit support (components whose weight changed); only the
  ``|S| x |S|`` cross-moment block is recomputed, everything else is
  read from the base snapshot (:mod:`repro.delta.moments`);
* **ledger update** — a floorplan change rebuilds only the per-lag
  occupancy ledger (``O(n_lags)``); the per-lag correlation values are
  cropped from the base when the site pitch is unchanged (bit-identical
  to re-kerneling for a base built by the same revision — the kernel is
  a pure function of the lag coordinates) and re-kerneled otherwise. The RG moments are *never* rebuilt for a
  geometry-only edit.

Closeness contract
------------------
Where the algebra is exact the delta result *is* the fresh result: a
no-edit call returns the base estimate bit-identically, and a cropped
geometry reuses bit-identical kernel values. Elsewhere two benign
reassociations separate the paths — the base mixture is unpruned (the
fresh path drops and renormalizes components below ``1e-12`` weight)
and the lag reduction runs as ``n * var + w @ values`` instead of
``sum(counts * interp(rho))``. Both are ulp-scale effects; the
documented bounds, asserted in tests and in ``bench_delta.py``, are

* ``|mean_delta / mean_fresh - 1| <= DELTA_MEAN_RTOL`` (1e-8)
* ``|std_delta / std_fresh - 1| <= DELTA_STD_RTOL`` (1e-6)

against a fresh ``estimate("linear")`` on the edited scenario.
Observed deviations are ~1e-12; the bounds leave headroom for large
mixtures (q ~ 500) where the pruning mass compounds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.api import LeakageEstimate, _json_scalar, resolve_auto_method
from repro.core.chip_model import FullChipModel
from repro.core.estimators.linear import LagGeometry
from repro.delta.base import (
    BaseEstimate,
    _interp_weights,
    _rho_sum,
    cell_components,
)
from repro.delta.edits import (
    USAGE_SUM_TOLERANCE,
    CellSwapEdit,
    FloorplanResizeEdit,
    UsageHistogramEdit,
    edit_from_dict,
)
from repro.delta.moments import component_params, cross_block
from repro.exceptions import (
    ConfigurationError,
    DeltaError,
    DeltaIncompatibleError,
)
from repro.obs import Tracer, span

#: Documented closeness of a delta estimate to a fresh ``linear``
#: estimate of the edited scenario (relative, on the mean).
DELTA_MEAN_RTOL = 1e-8
#: Same, on the standard deviation.
DELTA_STD_RTOL = 1e-6


def _as_edits(edits) -> Tuple[Any, ...]:
    if isinstance(edits, (CellSwapEdit, UsageHistogramEdit,
                          FloorplanResizeEdit, Mapping)):
        edits = (edits,)
    parsed = []
    for edit in edits:
        if isinstance(edit, Mapping):
            edit = edit_from_dict(edit)
        elif not isinstance(edit, (CellSwapEdit, UsageHistogramEdit,
                                   FloorplanResizeEdit)):
            raise ConfigurationError(
                f"not an edit: {type(edit).__name__}")
        parsed.append(edit)
    return tuple(parsed)


def _fold(base: BaseEstimate, edits: Sequence[Any]):
    """Compose all edits into one final scenario."""
    fractions = dict(base.fractions)
    n_cells = base.chip.n_cells
    width, height = base.chip.width, base.chip.height
    usage_edits = 0
    for edit in edits:
        if isinstance(edit, FloorplanResizeEdit):
            n_cells = edit.n_cells if edit.n_cells is not None else n_cells
            width = edit.width if edit.width is not None else width
            height = edit.height if edit.height is not None else height
        else:
            edit.apply(fractions, n_cells)
            usage_edits += 1
    if usage_edits:
        total = sum(fractions.values())
        if abs(total - 1.0) > USAGE_SUM_TOLERANCE:
            raise DeltaError(
                f"folded usage fractions sum to {total!r}; edits must "
                "conserve the histogram mass")
    return fractions, n_cells, width, height


def _extend_components(base: BaseEstimate, new_cells: Sequence[str]):
    """Append component rows for cells absent from the base mixture.

    Returns the extended ``(means, stds, a, h, k, cell_index,
    cell_probs)`` views plus the extension size; base arrays are never
    mutated (the extension lives only for this evaluation).
    """
    means, stds = base.means, base.stds
    a, h, k = base.a, base.h, base.k
    cell_index = dict(base.cell_index)
    cell_probs = dict(base.cell_probs)
    n_new = 0
    for cell_name in new_cells:
        _, probs, cell_means, cell_stds, fits = cell_components(
            base.characterization, cell_name, base.signal_probability)
        start = means.shape[0]
        means = np.concatenate([means, cell_means])
        stds = np.concatenate([stds, cell_stds])
        if not base.simplified:
            if fits is None:
                raise DeltaIncompatibleError(
                    f"cell {cell_name!r} has no (a, b, c) fits; cannot "
                    "extend the exact cross-moment state")
            a_new, h_new, k_new = component_params(fits, base.mu_l,
                                                   base.sigma_l)
            a = np.concatenate([a, a_new])
            h = np.concatenate([h, h_new])
            k = np.concatenate([k, k_new])
        cell_index[cell_name] = np.arange(start, means.shape[0])
        cell_probs[cell_name] = probs
        n_new += means.shape[0] - start
    return means, stds, a, h, k, cell_index, cell_probs, n_new


def _geometry_ledger(base: BaseEstimate, chip: FullChipModel,
                     ledger: Dict[str, Any]):
    """Lag correlation + occupancy ledger for a (possibly new) floorplan.

    Returns ``(geometry, rho, w, s_rho)``. Reuses the base's kernel
    values when the site pitch is unchanged and the new lag range fits
    inside the old one (a corner crop of the folded quadrant). For a
    base built by the same revision the crop is bit-identical to
    re-kerneling, the kernel being a pure function of lag coordinates;
    a stored base from a revision with another distance formula (e.g.
    ``np.hypot``) differs by up to 1 ulp of distance, well inside the
    ``DELTA_*_RTOL`` bounds. Otherwise re-evaluates the kernel, which
    needs the base's live correlation reference.
    """
    geometry = LagGeometry(chip.rows, chip.cols, chip.pitch_x, chip.pitch_y)
    base_chip = base.chip
    same_pitch = (chip.pitch_x == base_chip.pitch_x
                  and chip.pitch_y == base_chip.pitch_y)
    if (same_pitch and chip.cols <= base_chip.cols
            and chip.rows <= base_chip.rows):
        rho = base.rho[:chip.cols, :chip.rows]
        ledger["lags_reused"] = int(rho.size)
        ledger["lags_recomputed"] = 0
    else:
        if base.correlation is None:
            raise DeltaIncompatibleError(
                "floorplan edit changes the site pitch and the base has "
                "no correlation model attached to re-evaluate the "
                "kernel")
        rho = geometry.rho(base.correlation)
        ledger["lags_reused"] = 0
        ledger["lags_recomputed"] = int(rho.size)
    if base.simplified:
        return geometry, rho, None, _rho_sum(rho, geometry.counts,
                                             geometry.zero_lag)
    return geometry, rho, _interp_weights(base.grid, rho, geometry.counts,
                                          geometry.zero_lag), None


def _package(base: BaseEstimate, chip: FullChipModel, rg_mean: float,
             rg_variance: float, site_variance: float,
             ledger: Dict[str, Any]) -> LeakageEstimate:
    """Assemble the estimate exactly as the full estimator packages one."""
    scale = chip.n_cells / chip.n_sites
    details = {
        "rows": chip.rows,
        "cols": chip.cols,
        "rg_mean": rg_mean,
        "rg_std": float(np.sqrt(rg_variance)),
        "site_variance": site_variance,
        "simplified_correlation": float(base.simplified),
        "requested_method": "linear",
        "delta": ledger,
    }
    return LeakageEstimate(
        mean=float(chip.n_cells * rg_mean),
        std=float(np.sqrt(site_variance) * scale),
        method="linear",
        n_cells=int(chip.n_cells),
        signal_probability=float(base.signal_probability),
        vt_multiplier=float(base.vt_multiplier),
        details={key: _json_scalar(value)
                 for key, value in details.items()},
    )


def estimate_delta(base: BaseEstimate, edits, *,
                   trace: bool = False) -> LeakageEstimate:
    """Estimate the edited scenario incrementally from a base snapshot.

    ``edits`` is one edit, a sequence of edits, or their ``to_dict``
    documents (the service/CLI wire form); they are folded in order
    onto the base scenario. The result carries a ``details["delta"]``
    ledger recording reused vs recomputed work (edit count, component
    support, lag reuse, mode). See the module docstring for the
    closeness contract; a call with no effective change returns the
    base's own estimate bit-identically (plus the ledger).

    ``trace=True`` profiles the delta path into ``details["trace"]``
    with its own ``delta.*`` stages; numbers are identical either way.
    """
    if not trace:
        return _estimate_delta(base, edits)
    tracer = Tracer("delta/estimate_delta")
    with tracer:
        with tracer.span("delta.estimate"):
            result = _estimate_delta(base, edits)
    return result.with_details(trace=tracer.export())


def _estimate_delta(base: BaseEstimate, edits) -> LeakageEstimate:
    edits = _as_edits(edits)
    with span("delta.fold", edits=len(edits)):
        fractions, n_cells, width, height = _fold(base, edits)

    geometry_changed = (n_cells, width, height) != (
        base.chip.n_cells, base.chip.width, base.chip.height)
    changed_cells = _changed_cells(base, fractions)

    ledger: Dict[str, Any] = {
        "edits": len(edits),
        "mode": "simplified" if base.simplified else "exact",
        "usage_changed": bool(changed_cells),
        "geometry_changed": geometry_changed,
    }

    if not changed_cells and not geometry_changed:
        ledger.update({"support": 0, "lags_reused": int(base.rho.size),
                       "lags_recomputed": 0, "moments_recomputed": 0,
                       "moments_reused": base.n_components})
        return base.estimate.with_details(delta=ledger)

    # -- geometry half -----------------------------------------------------
    if geometry_changed:
        chip = FullChipModel.from_design(n_cells, width, height)
        if resolve_auto_method(chip.n_sites) != "linear":
            raise DeltaIncompatibleError(
                f"edited chip has {chip.n_sites} sites, beyond the "
                "linear-transform regime the delta engine rides")
        with span("delta.geometry"):
            geometry, rho, w, s_rho = _geometry_ledger(base, chip, ledger)
    else:
        chip = base.chip
        w, s_rho = base.w, base.s_rho
        ledger["lags_reused"] = int(base.rho.size)
        ledger["lags_recomputed"] = 0

    # -- mixture half ------------------------------------------------------
    if changed_cells:
        with span("delta.mixture", cells=len(changed_cells)):
            state = _mixture_delta(base, fractions, changed_cells, ledger)
        rg_mean, rg_second, mean_of_stds, values, scale_sq = state
    else:
        rg_mean = base.rg_mean
        rg_second = base.rg_second
        mean_of_stds = base.mean_of_stds
        values = None if base.simplified else base.vq - rg_mean ** 2
        scale_sq = mean_of_stds ** 2
        ledger.update({"support": 0, "moments_recomputed": 0,
                       "moments_reused": base.n_components})

    rg_variance = max(0.0, rg_second - rg_mean ** 2)

    # -- reduce ------------------------------------------------------------
    with span("delta.reduce"):
        if base.simplified:
            site_variance = chip.n_sites * rg_variance + scale_sq * s_rho
        else:
            site_variance = chip.n_sites * rg_variance + float(w @ values)

    with span("delta.package"):
        return _package(base, chip, rg_mean, rg_variance,
                        float(site_variance), ledger)


def _changed_cells(base: BaseEstimate,
                   fractions: Mapping[str, float]) -> List[str]:
    """Cells whose usage fraction differs from the base (float-exact).

    Folding only touches the cells an edit names, so untouched cells
    keep bit-identical fractions and fall out of the support here.
    """
    changed = [name for name, value in fractions.items()
               if base.fractions.get(name) != value]
    changed.extend(name for name in base.fractions
                   if name not in fractions)
    return changed


def _mixture_delta(base: BaseEstimate, fractions: Mapping[str, float],
                   changed_cells: Sequence[str], ledger: Dict[str, Any]):
    """Incremental RG moment update over the edit support.

    Returns ``(mean, second_moment, mean_of_stds, covariance_values,
    simplified_scale)`` for the edited mixture; ``covariance_values``
    is ``None`` in simplified mode.
    """
    new_cells = [name for name in changed_cells
                 if name not in base.cell_index]
    if not base.simplified:
        base.ensure_exact_params()
    (means, stds, a, h, k, cell_index, cell_probs,
     n_new) = _extend_if_needed(base, new_cells)

    # The sparse weight delta over the (possibly extended) space.
    support: List[int] = []
    delta_values: List[float] = []
    for cell_name in changed_cells:
        idx = cell_index[cell_name]
        target = fractions.get(cell_name, 0.0) * cell_probs[cell_name]
        current = (base.alphas[idx] if idx[-1] < base.n_components
                   else np.zeros(idx.shape[0]))
        diff = target - current
        hit = np.nonzero(diff)[0]
        support.extend(int(i) for i in idx[hit])
        delta_values.extend(float(d) for d in diff[hit])
    support_idx = np.asarray(support, dtype=int)
    delta = np.asarray(delta_values)

    ledger["support"] = int(support_idx.shape[0])
    ledger["moments_reused"] = int(base.n_components)
    ledger["new_components"] = int(n_new)

    rg_mean = base.rg_mean + float(delta @ means[support_idx])
    rg_second = base.rg_second + float(
        delta @ (stds[support_idx] ** 2 + means[support_idx] ** 2))
    mean_of_stds = base.mean_of_stds + float(delta @ stds[support_idx])

    if base.simplified:
        ledger["moments_recomputed"] = 0
        return rg_mean, rg_second, mean_of_stds, None, mean_of_stds ** 2

    # Quadratic-form update: vq' = vq + 2 (M alpha)[S] . d + d^T M_SS d.
    grid = base.grid
    with span("delta.moments", support=int(support_idx.shape[0])):
        old_mask = support_idx < base.n_components
        m_alpha_s = np.zeros((grid.shape[0], support_idx.shape[0]))
        if old_mask.any():
            m_alpha_s[:, old_mask] = base.u[:, support_idx[old_mask]]
        if (~old_mask).any():
            new_rows = support_idx[~old_mask]
            block = cross_block(a, h, k, grid, new_rows,
                                np.arange(base.n_components))
            m_alpha_s[:, ~old_mask] = block @ base.alphas
        m_ss = cross_block(a, h, k, grid, support_idx, support_idx)
        vq = (base.vq + 2.0 * (m_alpha_s @ delta)
              + np.einsum("gij,i,j->g", m_ss, delta, delta))
    ledger["moments_recomputed"] = int(support_idx.shape[0])
    return rg_mean, rg_second, mean_of_stds, vq - rg_mean ** 2, None


def _extend_if_needed(base: BaseEstimate, new_cells: Sequence[str]):
    if not new_cells:
        return (base.means, base.stds, base.a, base.h, base.k,
                base.cell_index, base.cell_probs, 0)
    base.ensure_exact_params()
    return _extend_components(base, new_cells)


class DeltaProbe:
    """Precomputed line of scenarios for repeated one-parameter probes.

    Many optimization loops (dual-Vt fraction bisection, usage
    interpolation studies) evaluate scenarios on a *line* in mixture
    space: component weights ``alpha(t) = (1 - t) alpha_0 + t alpha_1``.
    The quadratic form is then a polynomial in ``t``,

    ``vq(t) = vq_0 + 2 t b + t^2 c``,  ``b_g = d^T M_g alpha_0``,
    ``c_g = d^T M_g d``,

    so after one moment pass at construction every :meth:`probe` call
    costs ``O(grid)`` — thousands of probes for the price of one build.

    Parameters
    ----------
    base:
        The base snapshot (defines ``t = 0`` and the floorplan, which
        is fixed along the line).
    target_fractions:
        Usage fractions at ``t = 1`` (a mapping or
        :class:`~repro.core.usage.CellUsage`); cells absent from the
        base mixture are pulled from its characterization.
    """

    def __init__(self, base: BaseEstimate, target_fractions) -> None:
        if hasattr(target_fractions, "items"):
            target = dict(target_fractions.items())
        else:
            target = dict(target_fractions)
        self.base = base
        new_cells = [name for name in target if name not in base.cell_index]
        (means, stds, a, h, k, cell_index, cell_probs,
         _) = _extend_if_needed(base, new_cells)
        q = means.shape[0]
        alpha0 = np.zeros(q)
        alpha0[:base.n_components] = base.alphas
        alpha1 = np.zeros(q)
        for cell_name, fraction in target.items():
            idx = cell_index[cell_name]
            alpha1[idx] = fraction * cell_probs[cell_name]
        self._direction = alpha1 - alpha0
        self._means, self._stds = means, stds
        self._mean0 = float(alpha0 @ means)
        self._second0 = float(alpha0 @ (stds ** 2 + means ** 2))
        self._mos0 = float(alpha0 @ stds)
        self._dmean = float(self._direction @ means)
        self._dsecond = float(self._direction @ (stds ** 2 + means ** 2))
        self._dmos = float(self._direction @ stds)
        if base.simplified:
            self._vq0 = self._b = self._c = None
        else:
            from repro.delta.moments import quadratic_products

            with span("delta.probe_setup", q=q):
                self._vq0, _, self._b, self._c = quadratic_products(
                    a, h, k, base.grid, alpha0,
                    direction=self._direction, want_u=False)

    def probe(self, t: float) -> LeakageEstimate:
        """Estimate the scenario at line position ``t`` (0 = base)."""
        base = self.base
        t = float(t)
        rg_mean = self._mean0 + t * self._dmean
        rg_second = self._second0 + t * self._dsecond
        mean_of_stds = self._mos0 + t * self._dmos
        rg_variance = max(0.0, rg_second - rg_mean ** 2)
        if base.simplified:
            site_variance = (base.chip.n_sites * rg_variance
                             + mean_of_stds ** 2 * base.s_rho)
        else:
            vq = self._vq0 + 2.0 * t * self._b + t * t * self._c
            values = vq - rg_mean ** 2
            site_variance = (base.chip.n_sites * rg_variance
                             + float(base.w @ values))
        ledger = {
            "edits": 1, "mode": ("simplified" if base.simplified
                                 else "exact"),
            "usage_changed": t != 0.0, "geometry_changed": False,
            "support": int(np.count_nonzero(self._direction)),
            "probe_t": t,
            "lags_reused": int(base.rho.size), "lags_recomputed": 0,
            "moments_recomputed": 0,
            "moments_reused": int(self._means.shape[0]),
        }
        return _package(base, base.chip, rg_mean, rg_variance,
                        float(site_variance), ledger)
