"""Per-sample self-consistent Monte-Carlo oracle for the coupled solver.

The analytical coupled estimate makes two approximations on top of the
Random-Gate model: the fixed point runs over *moments* (mean-field),
and leakage fluctuations are amplified by the linearized closed-loop
factor ``1/(1-gamma)``. This module provides the ground truth both are
validated against: draw whole-chip samples of the RG model (a random
mixture component per site, a D2D+WID correlated channel-length field)
and iterate **each sample** to its own electro-thermal fixed point
through the *same* thermal operator and the same anchor
characterizations — temperature enters through piecewise-linear
interpolation of the per-component leakage fits between anchors, so
mean interpolation error is shared with the fast path rather than
confounded with the mean-field error.

Sample statistics then bound the analytical result: ``tests/thermal``
asserts the coupled mean/std agree within sample-derived 6-sigma
confidence intervals (the pattern of
``tests/characterization/test_moment_properties.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.chipmc import ChipMCResult
from repro.exceptions import EstimationError
from repro.obs import span
from repro.thermal.config import ThermalConfig
from repro.thermal.leakage import LeakageTemperatureModel
from repro.thermal.model import ThermalOperator


def _anchor_fit_arrays(model: LeakageTemperatureModel, index: int):
    """Per-component ``(a, b, c)`` fit arrays of anchor ``index``."""
    mixture = model.components_at(
        model.anchor_temperature(index)).random_gate.mixture
    if mixture.fits is None:
        raise EstimationError(
            "the thermal Monte-Carlo oracle needs per-component fits; "
            "characterize the library analytically")
    a = np.array([fit.a for fit in mixture.fits])
    b = np.array([fit.b for fit in mixture.fits])
    c = np.array([fit.c for fit in mixture.fits])
    return mixture.labels, a, b, c


def coupled_monte_carlo(
    estimator,
    config: ThermalConfig,
    n_samples: int = 1000,
    rng: Optional[np.random.Generator] = None,
    sample_chunk: int = 256,
    max_iterations: Optional[int] = None,
) -> ChipMCResult:
    """Monte-Carlo the coupled leakage–temperature fixed point.

    Parameters
    ----------
    estimator:
        A :class:`~repro.core.api.FullChipLeakageEstimator`; supplies
        the chip grid, the mixture inputs, and the technology (whose
        D2D/WID channel-length split drives the correlated field — the
        oracle always samples the technology's own correlation).
    config:
        The same :class:`ThermalConfig` the analytical solve uses; the
        oracle shares its thermal operator, power mapping, ambient, and
        anchor spacing.
    n_samples / rng / sample_chunk:
        Sampling controls; samples are processed ``sample_chunk`` at a
        time, each chunk iterated to its fixed point jointly.
    max_iterations:
        Per-sample iteration cap (defaults to ``config.max_iterations``);
        exhausting it raises a typed
        :class:`~repro.exceptions.EstimationError`.
    """
    rng = np.random.default_rng() if rng is None else rng
    chip = estimator.chip
    technology = estimator.characterization.technology
    ambient = config.resolve_ambient(technology)
    vdd = config.resolve_vdd(technology)
    cap = config.max_iterations if max_iterations is None \
        else int(max_iterations)

    model = LeakageTemperatureModel(
        estimator.characterization, estimator.usage,
        estimator.signal_probability, estimator.state_weights,
        ambient, config.anchor_spacing)
    model.ensure_anchors(ambient)
    theta = ThermalOperator(chip.rows, chip.cols, chip.pitch_x,
                            chip.pitch_y, config)
    n_sites = chip.n_sites
    site_scale = chip.n_cells / n_sites
    spacing = model.anchor_spacing

    labels0, *_ = _anchor_fit_arrays(model, 0)
    alphas = model.components_at(ambient).random_gate.mixture.alphas
    length = technology.length

    from repro.analysis.chipmc import _wid_sampler

    draw_wid = (_wid_sampler(chip.site_positions(),
                             technology.wid_correlation, "auto")
                if length.sigma_wid > 0 else None)

    samples = np.empty(n_samples)
    with span("thermal.oracle", n_samples=n_samples):
        for start in range(0, n_samples, sample_chunk):
            count = min(sample_chunk, n_samples - start)
            # One correlated channel-length field and one component
            # assignment per chip sample.
            wid = (draw_wid(count, rng) * length.sigma_wid
                   if draw_wid is not None else np.zeros((count, n_sites)))
            d2d = (rng.standard_normal(count)[:, None] * length.sigma_d2d
                   if length.sigma_d2d > 0 else 0.0)
            lengths = length.nominal + wid + d2d
            components = rng.choice(len(alphas), size=(count, n_sites),
                                    p=alphas)

            # Per-anchor per-site leakage of the drawn components at the
            # drawn lengths, evaluated lazily as the iterates climb and
            # kept pre-stacked (index 0 is the anchor axis) so the
            # per-iteration interpolation is a pure gather.
            stack = np.empty((0, count, n_sites))

            def leakage_through_anchor(index: int) -> np.ndarray:
                nonlocal stack
                if len(stack) > index:
                    return stack
                grown = np.empty((index + 1, count, n_sites))
                grown[:len(stack)] = stack
                for k in range(len(stack), index + 1):
                    model.ensure_anchors(model.anchor_temperature(k))
                    labels, a, b, c = _anchor_fit_arrays(model, k)
                    if labels != labels0:
                        raise EstimationError(
                            "mixture components changed between anchor "
                            "temperatures; cannot align Monte-Carlo "
                            "draws")
                    grown[k] = a[components] * np.exp(
                        b[components] * lengths
                        + c[components] * lengths ** 2)
                stack = grown
                return stack

            t_map = np.full((count, n_sites), ambient)
            converged = False
            leak = None
            for _ in range(cap):
                segment = np.clip(
                    ((t_map - ambient) / spacing).astype(int), 0, None)
                frac = (t_map - ambient) / spacing - segment
                anchors = leakage_through_anchor(int(segment.max()) + 1)
                low = np.take_along_axis(anchors, segment[None], axis=0)[0]
                high = np.take_along_axis(anchors, (segment + 1)[None],
                                          axis=0)[0]
                leak = low + frac * (high - low)
                power = (config.power_scale * vdd * site_scale * leak
                         + config.background_power / n_sites)
                proposed = ambient + theta.apply(
                    power.reshape(count, chip.rows, chip.cols)
                ).reshape(count, n_sites)
                residual = float(np.abs(proposed - t_map).max())
                if residual < config.tolerance:
                    t_map = proposed
                    converged = True
                    break
                t_map = t_map + config.damping * (proposed - t_map)
            if not converged:
                raise EstimationError(
                    f"thermal Monte-Carlo sample did not converge within "
                    f"{cap} iterations (chunk starting at {start})")
            samples[start:start + count] = site_scale * leak.sum(axis=1)
    return ChipMCResult(samples=samples)
