"""Within-die spatial correlation functions.

The paper (Section 2) assumes the existence of a spatial correlation
function [Xiong/Zolotov/He, ISPD'06] giving the correlation of the WID
component of a process parameter as a function of the distance between
two devices. This module provides the standard isotropic families used
in the statistical-timing/leakage literature, each of which is a valid
(positive semi-definite on the plane) correlation function:

* :class:`ExponentialCorrelation`  -- ``rho(d) = exp(-d / length)``
* :class:`GaussianCorrelation`     -- ``rho(d) = exp(-(d / length)**2)``
* :class:`LinearCorrelation`       -- ``rho(d) = max(0, 1 - d / dmax)``
  (the triangular / "tent" model; PSD in 1-D and commonly used as a
  simple compact-support model in the leakage literature)
* :class:`SphericalCorrelation`    -- the geostatistical spherical model,
  PSD in up to three dimensions, with compact support ``dmax``.

All correlation callables are vectorized over numpy arrays of distances.

:class:`TotalCorrelation` combines a WID correlation with a D2D floor:

.. math::

   \\rho(d) = \\rho_C + (1 - \\rho_C)\\,\\rho_{wid}(d),
   \\qquad \\rho_C = \\sigma_{dd}^2 / \\sigma^2 .
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from repro.exceptions import CorrelationError
from repro.process.parameters import ProcessParameter


def distance_xy(dx, dy) -> np.ndarray:
    """Euclidean length ``sqrt(dx*dx + dy*dy)`` of displacements (metres).

    Even in each component bit for bit (a square drops the sign), which
    is what the quadrant fold of eq. (17) relies on. Within 1 ulp of
    ``np.hypot``, whose rescaling only guards against squares that
    overflow or underflow; lags in metres are nowhere near either limit.
    """
    return np.sqrt(dx * dx + dy * dy)


class SpatialCorrelation(abc.ABC):
    """Abstract isotropic spatial correlation function ``rho(d)``.

    Subclasses implement :meth:`_evaluate` on a non-negative float array.
    ``rho(0) == 1`` is enforced by contract and checked in the test suite.
    """

    @abc.abstractmethod
    def _evaluate(self, distance: np.ndarray) -> np.ndarray:
        """Evaluate on a validated non-negative ndarray of distances."""

    @property
    @abc.abstractmethod
    def support(self) -> float:
        """Distance beyond which the correlation is (numerically) zero.

        ``math.inf`` for functions without compact support.
        """

    def effective_support(self, tolerance: float = 1e-4) -> float:
        """Smallest distance ``D`` with ``rho(d) <= tolerance`` for d >= D.

        For compact-support models this is :attr:`support`; for
        infinite-support models it is found by bisection. Used by the
        polar constant-time estimator, which needs a finite upper
        integration limit ``D_max``.
        """
        if math.isfinite(self.support):
            return self.support
        lo, hi = 0.0, 1.0
        while float(self(hi)) > tolerance:
            hi *= 2.0
            if hi > 1e6:
                raise CorrelationError(
                    f"{type(self).__name__}: correlation does not decay below "
                    f"{tolerance} within 1e6 m; cannot truncate")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self(mid)) > tolerance:
                lo = mid
            else:
                hi = mid
        return hi

    @property
    def isotropic(self) -> bool:
        """Whether ``rho`` depends on distance only (not direction).

        The polar single-integral estimator requires isotropy; all other
        machinery works through :meth:`evaluate_xy`.
        """
        return True

    def __call__(self, distance) -> np.ndarray:
        """Evaluate ``rho`` at one or more distances (metres)."""
        d = np.asarray(distance, dtype=float)
        if np.any(d < 0):
            raise CorrelationError("distances must be non-negative")
        return self._evaluate(d)

    def evaluate_xy(self, dx, dy) -> np.ndarray:
        """Evaluate ``rho`` for displacement components (metres).

        Isotropic functions reduce to ``rho(distance_xy(dx, dy))``;
        anisotropic wrappers override this with their own metric.

        Every implementation must be even in each displacement
        component, bit for bit: ``evaluate_xy(-dx, dy)`` and
        ``evaluate_xy(dx, -dy)`` equal ``evaluate_xy(dx, dy)``. The
        eq. (17) transform folds the lag lattice onto its non-negative
        quadrant on that contract (:mod:`repro.core.estimators.linear`).
        """
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        return self._evaluate(distance_xy(dx, dy))

    def matrix(self, points: np.ndarray) -> np.ndarray:
        """Correlation matrix for an ``(n, 2)`` array of point coordinates."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise CorrelationError(
                f"points must have shape (n, 2), got {pts.shape}")
        delta = pts[:, None, :] - pts[None, :, :]
        return self.evaluate_xy(delta[..., 0], delta[..., 1])


class ExponentialCorrelation(SpatialCorrelation):
    """``rho(d) = exp(-d / length)`` — the Markovian / Ornstein-Uhlenbeck
    family, valid in any dimension."""

    def __init__(self, length: float) -> None:
        if length <= 0:
            raise CorrelationError(f"length must be positive, got {length!r}")
        self.length = float(length)

    def _evaluate(self, distance: np.ndarray) -> np.ndarray:
        return np.exp(-distance / self.length)

    @property
    def support(self) -> float:
        return math.inf

    def __repr__(self) -> str:
        return f"ExponentialCorrelation(length={self.length:g})"


class GaussianCorrelation(SpatialCorrelation):
    """``rho(d) = exp(-(d / length)**2)`` — the squared-exponential family,
    valid in any dimension; very smooth fields."""

    def __init__(self, length: float) -> None:
        if length <= 0:
            raise CorrelationError(f"length must be positive, got {length!r}")
        self.length = float(length)

    def _evaluate(self, distance: np.ndarray) -> np.ndarray:
        return np.exp(-((distance / self.length) ** 2))

    @property
    def support(self) -> float:
        return math.inf

    def __repr__(self) -> str:
        return f"GaussianCorrelation(length={self.length:g})"


class LinearCorrelation(SpatialCorrelation):
    """``rho(d) = max(0, 1 - d / dmax)`` — triangular model with compact
    support ``dmax``.

    This is the simple model sketched in the paper's examples: the
    correlation decays linearly and reaches exactly zero at ``dmax``,
    which makes the polar-coordinate single-integral method (Section
    3.2.2) apply without truncation.
    """

    def __init__(self, dmax: float) -> None:
        if dmax <= 0:
            raise CorrelationError(f"dmax must be positive, got {dmax!r}")
        self.dmax = float(dmax)

    def _evaluate(self, distance: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - distance / self.dmax)

    @property
    def support(self) -> float:
        return self.dmax

    def __repr__(self) -> str:
        return f"LinearCorrelation(dmax={self.dmax:g})"


class SphericalCorrelation(SpatialCorrelation):
    """Geostatistical spherical model with compact support ``dmax``:

    ``rho(d) = 1 - 1.5*(d/dmax) + 0.5*(d/dmax)**3`` for ``d < dmax``,
    zero beyond. Positive semi-definite in dimensions up to three.
    """

    def __init__(self, dmax: float) -> None:
        if dmax <= 0:
            raise CorrelationError(f"dmax must be positive, got {dmax!r}")
        self.dmax = float(dmax)

    def _evaluate(self, distance: np.ndarray) -> np.ndarray:
        u = np.minimum(distance / self.dmax, 1.0)
        return 1.0 - 1.5 * u + 0.5 * u ** 3

    @property
    def support(self) -> float:
        return self.dmax

    def __repr__(self) -> str:
        return f"SphericalCorrelation(dmax={self.dmax:g})"


class CompositeCorrelation(SpatialCorrelation):
    """Convex combination of correlation functions.

    A convex combination of valid correlation functions is itself valid;
    this models multi-scale WID variation (e.g. a short-range litho
    component plus a long-range gradient component).
    """

    def __init__(self, components: Sequence[SpatialCorrelation],
                 weights: Sequence[float]) -> None:
        if len(components) != len(weights) or not components:
            raise CorrelationError(
                "components and weights must be equal-length and non-empty")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or not math.isclose(float(w.sum()), 1.0,
                                             rel_tol=0, abs_tol=1e-9):
            raise CorrelationError(
                f"weights must be non-negative and sum to 1, got {weights!r}")
        self.components = tuple(components)
        self.weights = tuple(float(x) for x in w)

    def _evaluate(self, distance: np.ndarray) -> np.ndarray:
        total = np.zeros_like(distance, dtype=float)
        for weight, component in zip(self.weights, self.components):
            total += weight * component._evaluate(distance)
        return total

    @property
    def isotropic(self) -> bool:
        return all(component.isotropic for component in self.components)

    def evaluate_xy(self, dx, dy) -> np.ndarray:
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        total = np.zeros(np.broadcast(dx, dy).shape)
        for weight, component in zip(self.weights, self.components):
            total = total + weight * component.evaluate_xy(dx, dy)
        return total

    @property
    def support(self) -> float:
        return max(component.support for component in self.components)

    def __repr__(self) -> str:
        return (f"CompositeCorrelation(components={list(self.components)!r}, "
                f"weights={list(self.weights)!r})")


class AnisotropicCorrelation(SpatialCorrelation):
    """Direction-dependent correlation via an elliptical metric.

    Wraps an isotropic base function and stretches the coordinate axes:
    ``rho(dx, dy) = base(sqrt((dx/sx)^2 + (dy/sy)^2))``. Axis rescaling
    preserves positive semi-definiteness, so the result is a valid
    correlation model — the standard geometric-anisotropy construction
    for reticle/scan-direction effects.

    ``scale_x > 1`` stretches the correlation along x (slower decay).
    """

    def __init__(self, base: SpatialCorrelation, scale_x: float,
                 scale_y: float) -> None:
        if scale_x <= 0 or scale_y <= 0:
            raise CorrelationError("anisotropy scales must be positive")
        if not base.isotropic:
            raise CorrelationError(
                "AnisotropicCorrelation must wrap an isotropic base")
        self.base = base
        self.scale_x = float(scale_x)
        self.scale_y = float(scale_y)

    @property
    def isotropic(self) -> bool:
        return math.isclose(self.scale_x, self.scale_y)

    def _evaluate(self, distance: np.ndarray) -> np.ndarray:
        # Scalar-distance evaluation is only meaningful when the metric
        # is actually isotropic (equal scales).
        if not self.isotropic:
            raise CorrelationError(
                "anisotropic correlation needs displacement components; "
                "use evaluate_xy(dx, dy)")
        return self.base._evaluate(distance / self.scale_x)

    def evaluate_xy(self, dx, dy) -> np.ndarray:
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        return self.base._evaluate(
            distance_xy(dx / self.scale_x, dy / self.scale_y))

    @property
    def support(self) -> float:
        return self.base.support * max(self.scale_x, self.scale_y)

    def effective_support(self, tolerance: float = 1e-4) -> float:
        """Truncation radius along the slowest-decaying axis.

        The default bisection needs a scalar-distance evaluation, which
        an anisotropic metric does not define; the base function's
        radius scaled by the larger stretch is a valid (conservative)
        bound for every direction.
        """
        return (self.base.effective_support(tolerance)
                * max(self.scale_x, self.scale_y))

    def __repr__(self) -> str:
        return (f"AnisotropicCorrelation(base={self.base!r}, "
                f"scale_x={self.scale_x:g}, scale_y={self.scale_y:g})")


class TotalCorrelation(SpatialCorrelation):
    """Total (D2D + WID) correlation of a process parameter.

    Combines the WID spatial correlation with the D2D correlation floor
    by the normalization described in Section 2 of the paper:

    ``rho(d) = rho_floor + (1 - rho_floor) * rho_wid(d)``.
    """

    def __init__(self, wid: SpatialCorrelation,
                 parameter: ProcessParameter) -> None:
        self.wid = wid
        self.parameter = parameter
        self.rho_floor = parameter.rho_floor

    def _evaluate(self, distance: np.ndarray) -> np.ndarray:
        return self.rho_floor + (1.0 - self.rho_floor) * self.wid._evaluate(distance)

    @property
    def isotropic(self) -> bool:
        return self.wid.isotropic

    def evaluate_xy(self, dx, dy) -> np.ndarray:
        return (self.rho_floor
                + (1.0 - self.rho_floor) * self.wid.evaluate_xy(dx, dy))

    @property
    def support(self) -> float:
        # The *total* correlation never reaches zero when a D2D floor
        # exists; report the support of the decaying part.
        return self.wid.support

    def effective_support(self, tolerance: float = 1e-4) -> float:
        """Truncation radius of the *decaying* part.

        The total correlation never falls below the D2D floor, so the
        literal "rho <= tolerance" radius does not exist; what every
        truncating consumer (polar estimator, spatial pruning) actually
        needs is the distance beyond which only the floor remains.
        """
        return self.decaying_part().effective_support(tolerance)

    def decaying_part(self) -> "ScaledCorrelation":
        """The compact/decaying component ``rho(d) - rho_floor``.

        Used by the polar estimator's D2D split (paper eq. 26). Note the
        returned object is *not* normalized to one at zero; it scales the
        WID correlation by ``1 - rho_floor``.
        """
        return ScaledCorrelation(self.wid, 1.0 - self.rho_floor)

    def __repr__(self) -> str:
        return (f"TotalCorrelation(wid={self.wid!r}, "
                f"rho_floor={self.rho_floor:.4f})")


class ScaledCorrelation(SpatialCorrelation):
    """A correlation function scaled by a constant in (0, 1].

    Not a correlation function in the strict sense (``rho(0) < 1`` when
    ``scale < 1``); used as the decaying part in the D2D split.
    """

    def __init__(self, base: SpatialCorrelation, scale: float) -> None:
        if not 0.0 < scale <= 1.0:
            raise CorrelationError(f"scale must be in (0, 1], got {scale!r}")
        self.base = base
        self.scale = float(scale)

    def _evaluate(self, distance: np.ndarray) -> np.ndarray:
        return self.scale * self.base._evaluate(distance)

    @property
    def isotropic(self) -> bool:
        return self.base.isotropic

    def evaluate_xy(self, dx, dy) -> np.ndarray:
        return self.scale * self.base.evaluate_xy(dx, dy)

    @property
    def support(self) -> float:
        return self.base.support

    def __repr__(self) -> str:
        return f"ScaledCorrelation(base={self.base!r}, scale={self.scale:g})"
