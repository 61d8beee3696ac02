"""Process-parameter descriptions with die-to-die / within-die splits.

Following Section 2 of the paper, a varying process parameter (channel
length ``L``, threshold voltage ``Vt``) has two statistically independent
components:

* a **die-to-die (D2D)** component, shared by every device on a die, with
  variance ``sigma_d2d**2``;
* a **within-die (WID)** component, different per device but spatially
  correlated, with variance ``sigma_wid**2``.

The total variance is ``sigma**2 = sigma_d2d**2 + sigma_wid**2`` and the
total spatial correlation between two devices at distance ``d`` is

.. math::

    \\rho(d) = \\frac{\\sigma_{dd}^2 + \\sigma_{wd}^2\\,\\rho_{wid}(d)}
                    {\\sigma_{dd}^2 + \\sigma_{wd}^2}

which never falls below the D2D floor ``rho_floor = sigma_d2d**2 / sigma**2``.

Cell characterization reads only the total ``sigma``; the split enters
at chip level. A parameter built from a total (``synthetic_90nm``,
:meth:`ProcessParameter.with_split`) therefore stores that total and
derives the split from it, so the total does not move by an ulp when
only the split changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ProcessParameter:
    """A Gaussian process parameter with a D2D/WID variance split.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"L"``.
    nominal:
        Nominal (mean) value, SI units.
    sigma_d2d:
        Standard deviation of the die-to-die component.
    sigma_wid:
        Standard deviation of the within-die component.
    total_sigma:
        The total standard deviation the split was derived from, when
        the parameter was built from one; ``None`` derives the total
        from the split. It must agree with the split to rounding.
    """

    name: str
    nominal: float
    sigma_d2d: float
    sigma_wid: float
    total_sigma: Optional[float] = None

    def __post_init__(self) -> None:
        if self.nominal <= 0:
            raise ConfigurationError(
                f"{self.name}: nominal must be positive, got {self.nominal!r}")
        if self.sigma_d2d < 0 or self.sigma_wid < 0:
            raise ConfigurationError(
                f"{self.name}: standard deviations must be non-negative, got "
                f"sigma_d2d={self.sigma_d2d!r}, sigma_wid={self.sigma_wid!r}")
        if self.sigma_d2d == 0 and self.sigma_wid == 0:
            raise ConfigurationError(
                f"{self.name}: at least one variation component must be non-zero")
        if self.total_sigma is not None and not math.isclose(
                self.total_sigma, math.sqrt(self.variance), rel_tol=1e-12):
            raise ConfigurationError(
                f"{self.name}: total_sigma={self.total_sigma!r} does not "
                f"match the split (sigma_d2d={self.sigma_d2d!r}, "
                f"sigma_wid={self.sigma_wid!r})")

    @property
    def variance(self) -> float:
        """Total variance of the split, ``sigma_d2d**2 + sigma_wid**2``
        (``sigma**2`` to rounding)."""
        return self.sigma_d2d ** 2 + self.sigma_wid ** 2

    @property
    def sigma(self) -> float:
        """Total standard deviation: the stored total when given, else
        derived from the split."""
        if self.total_sigma is not None:
            return self.total_sigma
        return math.sqrt(self.variance)

    @property
    def rho_floor(self) -> float:
        """D2D correlation floor ``sigma_d2d**2 / sigma**2`` in [0, 1]."""
        return self.sigma_d2d ** 2 / self.variance

    @property
    def relative_sigma(self) -> float:
        """Total sigma as a fraction of nominal (``3*relative_sigma`` is the
        familiar "3-sigma percent" process corner width)."""
        return self.sigma / self.nominal

    def with_split(self, d2d_fraction: float) -> "ProcessParameter":
        """Return a copy with the same total sigma but a different D2D
        variance fraction.

        The total is carried over exactly (:attr:`sigma` of the copy is
        :attr:`sigma` of this parameter), so whatever reads only the
        total — cell characterization — sees the same number.

        Parameters
        ----------
        d2d_fraction:
            Fraction of the *variance* assigned to the D2D component,
            in [0, 1].
        """
        if not 0.0 <= d2d_fraction <= 1.0:
            raise ConfigurationError(
                f"d2d_fraction must be in [0, 1], got {d2d_fraction!r}")
        total_var = self.variance
        return ProcessParameter(
            name=self.name,
            nominal=self.nominal,
            sigma_d2d=math.sqrt(d2d_fraction * total_var),
            sigma_wid=math.sqrt((1.0 - d2d_fraction) * total_var),
            total_sigma=self.sigma,
        )


@dataclass(frozen=True)
class VtSpec:
    """Threshold-voltage random-dopant-fluctuation specification.

    Per Section 2.1 of the paper, ``Vt`` variations here mean *random
    dopant fluctuations only* (the ``Vt`` roll-off contribution is lumped
    into the ``L`` dependence of the device model). RDF-induced ``Vt``
    variations are independent device to device, so they affect the mean
    of total leakage but contribute negligibly to its variance for large
    gate counts.

    Parameters
    ----------
    nominal_n / nominal_p:
        Nominal NMOS / PMOS threshold magnitude [V].
    sigma:
        RDF standard deviation for a reference-size device [V].
    """

    nominal_n: float
    nominal_p: float
    sigma: float

    def __post_init__(self) -> None:
        if self.nominal_n <= 0 or self.nominal_p <= 0:
            raise ConfigurationError(
                "Vt nominal magnitudes must be positive, got "
                f"nominal_n={self.nominal_n!r}, nominal_p={self.nominal_p!r}")
        if self.sigma < 0:
            raise ConfigurationError(
                f"Vt sigma must be non-negative, got {self.sigma!r}")
