"""Technology presets.

A :class:`Technology` bundles everything the device / cell layers need:
supply voltage, nominal device geometry, threshold voltages, subthreshold
model coefficients, and the statistical description of the varying
parameters (channel length ``L`` and RDF ``Vt``).

The default preset, :func:`synthetic_90nm`, is a self-consistent stand-in
for the commercial 90 nm CMOS process used in the paper. Its parameter
values are drawn from published 90 nm-era data (Leff about 45-55 nm,
Vt about 0.22-0.32 V, DIBL about 50-100 mV/V, subthreshold swing about
85-100 mV/dec) so that stack factors, Ioff magnitudes (about 1-100 nA/um)
and leakage spreads under 3-sigma L variation land in realistic ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import constants
from repro.exceptions import ConfigurationError
from repro.process.correlation import (
    ExponentialCorrelation,
    SpatialCorrelation,
    TotalCorrelation,
)
from repro.process.parameters import ProcessParameter, VtSpec


@dataclass(frozen=True)
class Technology:
    """A process technology description.

    Parameters
    ----------
    name:
        Human-readable identifier.
    vdd:
        Nominal supply voltage [V].
    length:
        Channel length :class:`ProcessParameter` (D2D/WID split included).
    vt:
        Threshold-voltage RDF specification.
    wid_correlation:
        WID spatial correlation function for the channel length.
    subthreshold_swing_factor:
        The ideality factor ``n`` in ``I ~ exp(Vgs/(n*kT/q))``; the swing
        is ``n * kT/q * ln 10`` V/decade.
    dibl:
        DIBL coefficient ``eta`` [V/V]: Vt reduction per volt of Vds.
    body_effect:
        Linearized body-effect coefficient [V/V]: Vt increase per volt of
        reverse source-body bias.
    vt_rolloff_delta:
        Magnitude of Vt roll-off [V]: Vt is reduced by
        ``vt_rolloff_delta * exp(-(L - L_nominal)/vt_rolloff_length)``
        relative to the long-channel value (lumped into the L dependence
        of leakage per Section 2.1 of the paper).
    vt_rolloff_length:
        Characteristic length of the roll-off [m].
    i0_per_width:
        Subthreshold current prefactor per unit width at threshold
        (``Vgs = Vt``) for the nominal channel length [A/m].
    min_width:
        Minimum transistor width [m]; library cells express widths as
        multiples of this.
    temperature:
        Characterization temperature [K].
    vt_temp_coefficient:
        Linearized threshold drop per kelvin of heating [V/K]
        (see :meth:`at_temperature`).
    gate_j0_per_area:
        Gate-oxide tunneling current density at full oxide bias [A/m^2]
        (the optional gate-leakage extension; zero disables it).
    gate_v0:
        Exponential slope of the tunneling current vs. oxide voltage [V].
    """

    name: str
    vdd: float
    length: ProcessParameter
    vt: VtSpec
    wid_correlation: SpatialCorrelation
    subthreshold_swing_factor: float = 1.5
    dibl: float = 0.08
    body_effect: float = 0.18
    vt_rolloff_delta: float = 0.40
    vt_rolloff_length: float = 22e-9
    i0_per_width: float = 6.0
    min_width: float = 120e-9
    temperature: float = constants.ROOM_TEMPERATURE
    vt_temp_coefficient: float = 1.0e-3
    gate_j0_per_area: float = 2.0e5
    gate_v0: float = 0.12

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise ConfigurationError(f"vdd must be positive, got {self.vdd!r}")
        if self.subthreshold_swing_factor < 1.0:
            raise ConfigurationError(
                "subthreshold_swing_factor must be >= 1 (ideality factor), "
                f"got {self.subthreshold_swing_factor!r}")
        if not 0.0 <= self.dibl < 1.0:
            raise ConfigurationError(f"dibl must be in [0, 1), got {self.dibl!r}")
        if self.body_effect < 0:
            raise ConfigurationError(
                f"body_effect must be non-negative, got {self.body_effect!r}")
        if self.vt_rolloff_length <= 0 or self.vt_rolloff_delta < 0:
            raise ConfigurationError("invalid Vt roll-off parameters")
        if self.i0_per_width <= 0 or self.min_width <= 0:
            raise ConfigurationError("i0_per_width and min_width must be positive")
        if self.temperature <= 0:
            raise ConfigurationError(
                f"temperature must be positive, got {self.temperature!r}")
        if self.vt_temp_coefficient < 0:
            raise ConfigurationError(
                "vt_temp_coefficient must be non-negative, got "
                f"{self.vt_temp_coefficient!r}")
        if self.gate_j0_per_area < 0 or self.gate_v0 <= 0:
            raise ConfigurationError("invalid gate-tunneling parameters")

    @property
    def thermal_voltage(self) -> float:
        """``kT/q`` at the characterization temperature [V]."""
        return constants.thermal_voltage(self.temperature)

    @property
    def total_correlation(self) -> TotalCorrelation:
        """Total (D2D + WID) channel-length correlation function."""
        return TotalCorrelation(self.wid_correlation, self.length)

    def with_correlation(self, wid: SpatialCorrelation) -> "Technology":
        """Copy of this technology with a different WID correlation."""
        return replace(self, wid_correlation=wid)

    def with_length_split(self, d2d_fraction: float) -> "Technology":
        """Copy with the L variance re-split between D2D and WID."""
        return replace(self, length=self.length.with_split(d2d_fraction))

    def with_wid_only(self) -> "Technology":
        """Copy with all L variance assigned to the WID component."""
        return self.with_length_split(0.0)

    def at_temperature(self, temperature: float) -> "Technology":
        """Copy retargeted to a junction temperature [K].

        Besides the thermal voltage, the threshold magnitudes drop by
        ``vt_temp_coefficient`` per kelvin of heating (the standard
        linearized Vt(T) model, ~1 mV/K), which is what makes leakage so
        strongly temperature-dependent.
        """
        if temperature <= 0:
            raise ConfigurationError(
                f"temperature must be positive, got {temperature!r}")
        delta = self.vt_temp_coefficient * (temperature - self.temperature)
        vt_n = self.vt.nominal_n - delta
        vt_p = self.vt.nominal_p - delta
        if vt_n <= 0 or vt_p <= 0:
            raise ConfigurationError(
                f"temperature {temperature} K drives a threshold through "
                "zero; the linearized Vt(T) model does not apply")
        from repro.process.parameters import VtSpec

        return replace(self, temperature=temperature,
                       vt=VtSpec(nominal_n=vt_n, nominal_p=vt_p,
                                 sigma=self.vt.sigma))


def synthetic_90nm(
    correlation_length: float = 1.0 * constants.MM,
    d2d_fraction: float = 0.5,
    relative_sigma_l: float = 0.05,
) -> Technology:
    """Build the default synthetic 90 nm-class technology.

    Parameters
    ----------
    correlation_length:
        Characteristic length of the WID exponential correlation [m].
        Published extractions report correlation lengths from a few
        hundred micrometres to a few millimetres.
    d2d_fraction:
        Fraction of channel-length *variance* assigned to the D2D
        component (an even split is the common assumption).
    relative_sigma_l:
        Total channel-length sigma as a fraction of nominal
        (``0.05`` means the 3-sigma spread is +/-15 %).
    """
    nominal_l = 50e-9
    sigma_l = relative_sigma_l * nominal_l
    length = ProcessParameter(
        name="L",
        nominal=nominal_l,
        sigma_d2d=(d2d_fraction ** 0.5) * sigma_l,
        sigma_wid=((1.0 - d2d_fraction) ** 0.5) * sigma_l,
        total_sigma=sigma_l,
    )
    vt = VtSpec(nominal_n=0.26, nominal_p=0.28, sigma=0.018)
    return Technology(
        name="synthetic-90nm",
        vdd=1.0,
        length=length,
        vt=vt,
        wid_correlation=ExponentialCorrelation(correlation_length),
    )
