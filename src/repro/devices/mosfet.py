"""Subthreshold MOSFET model.

Leakage current is determined primarily by the channel length ``L`` and
the threshold voltage ``Vt`` (Section 2.1 of the paper), so the device
model concentrates on an accurate subthreshold characteristic. The
channel current is written in a *symmetric* forward/reverse-injection
form,

.. math::

   I = I_0 W\\,[E(V_s, V_d) - E(V_d, V_s)], \\qquad
   E(x, y) = \\exp\\frac{V_g - x - V_t^{eff}(x, y)}{n\\,kT/q}

which is exact for a barrier-controlled subthreshold channel, vanishes
smoothly at zero bias, and — crucially for transmission-gate cells — is
correct regardless of which terminal happens to sit at the higher
potential. The effective threshold captures the three mechanisms that
matter for leakage statistics:

* **Vt roll-off** — ``Vt`` drops for short ``L`` as
  ``-delta * exp(-L / l0)``; per the paper this is the component of
  "Vt variation" that is lumped into the ``L`` dependence.
* **DIBL** — ``Vt`` drops by ``eta * Vds``.
* **Body effect** — ``Vt`` rises (linearized) with reverse source-body
  bias, which is what makes stacked OFF transistors leak far less than a
  single OFF transistor (the stack effect).

The same smooth expression is evaluated for ON devices, where the large
exponential makes them behave as near-shorts in the DC solve; this keeps
the cell-leakage Newton solver free of topology special cases.

All functions are vectorized over numpy arrays so that Monte-Carlo
characterization evaluates thousands of samples per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.process.technology import Technology

#: Device polarity markers.
NMOS = "nmos"
PMOS = "pmos"

#: Exponent clamp — keeps intermediate Newton iterates finite without
#: affecting converged leakage values (exp(60) ~ 1e26 >> any real bias).
_EXP_CLAMP = 60.0


def _clamped_exp(x: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(np.maximum(x, -_EXP_CLAMP), _EXP_CLAMP))


@dataclass(frozen=True)
class DeviceModel:
    """Technology-bound MOSFET evaluator.

    Global parameters come from the :class:`~repro.process.Technology`;
    per-device quantities (channel length, RDF threshold shift, width)
    are passed to each call so that samples can be vectorized.
    """

    technology: Technology

    @property
    def _n_vt(self) -> float:
        return (self.technology.subthreshold_swing_factor
                * self.technology.thermal_voltage)

    def rolloff(self, length) -> np.ndarray:
        """Threshold reduction (positive for short channels) due to Vt
        roll-off at channel length ``length`` [V], referenced to zero at
        the nominal length."""
        tech = self.technology
        l_nom = tech.length.nominal
        return tech.vt_rolloff_delta * (
            np.exp(-np.asarray(length, dtype=float) / tech.vt_rolloff_length)
            - np.exp(-l_nom / tech.vt_rolloff_length))

    def nmos_branch(self, vg, vs, vd, length, width, vt_shift=0.0,
                    rolloff=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """NMOS channel current flowing from the drain node to the source
        node, with derivatives w.r.t. the two channel-terminal voltages.

        Node voltages are absolute (body at 0 V). Positive for
        ``vd > vs``; the symmetric form remains correct when the labeled
        terminals are reverse-biased. Returns ``(i, di_dvs, di_dvd)``.
        ``rolloff`` optionally supplies a precomputed
        :meth:`rolloff` of ``length``, so batched callers evaluate it
        once for every device that shares the lengths.
        """
        if rolloff is None:
            rolloff = self.rolloff(length)
        return self.channel(self.barrier(NMOS, vg, vt_shift, rolloff), 1.0,
                            vs, vd, self.technology.i0_per_width
                            * np.asarray(width, dtype=float))

    def pmos_branch(self, vg, vs, vd, length, width, vt_shift=0.0,
                    rolloff=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """PMOS channel current flowing from the source node to the drain
        node, with derivatives w.r.t. the two channel-terminal voltages.

        Node voltages are absolute (body at VDD). Positive for
        ``vs > vd``. Returns ``(i, di_dvs, di_dvd)``; ``rolloff`` as in
        :meth:`nmos_branch`.
        """
        if rolloff is None:
            rolloff = self.rolloff(length)
        return self.channel(self.barrier(PMOS, vg, vt_shift, rolloff), -1.0,
                            vs, vd, self.technology.i0_per_width
                            * np.asarray(width, dtype=float))

    def barrier(self, kind: str, vg, vt_shift=0.0, rolloff=0.0) -> np.ndarray:
        """Gate side of the injection exponent, in units of ``n kT/q``.

        The gate overdrive over the rolled-off threshold, with the body
        at 0 V (NMOS) or VDD (PMOS). It depends on the gate voltage but
        not on the channel terminals, so a solver whose gates sit on
        rails evaluates it once.
        """
        tech = self.technology
        vg = np.asarray(vg, dtype=float)
        shift = np.asarray(vt_shift, dtype=float)
        if kind == NMOS:
            return (vg - tech.vt.nominal_n - shift + rolloff) / self._n_vt
        return (-vg - tech.vt.nominal_p - shift + rolloff
                - tech.body_effect * tech.vdd) / self._n_vt

    def channel(self, base, sign, vs, vd,
                scale) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Channel current ``(i, di_dvs, di_dvd)`` of devices with
        :meth:`barrier` ``base`` and width current ``scale`` [A].

        ``sign`` is +1 for NMOS and -1 for PMOS, scalar or per row. The
        PMOS terminal exponents and derivative sums are exactly the
        negated NMOS ones (IEEE negation, subtraction and products are
        sign-symmetric), so one evaluation over rows of both polarities
        gives each row the bits of its own polarity's formula.
        """
        tech = self.technology
        n_vt = self._n_vt
        gamma, eta = tech.body_effect, tech.dibl
        vs = np.asarray(vs, dtype=float)
        vd = np.asarray(vd, dtype=float)
        # E(x, y): injection over the barrier at terminal x, with DIBL
        # set by the far terminal y.
        fwd = _clamped_exp(base + sign * (
            (-(1.0 + gamma) * vs + eta * (vd - vs)) / n_vt))
        rev = _clamped_exp(base + sign * (
            (-(1.0 + gamma) * vd + eta * (vs - vd)) / n_vt))
        current = scale * (fwd - rev)
        di_dvs = scale * (sign * (fwd * (-(1.0 + gamma + eta))
                                  - rev * eta)) / n_vt
        di_dvd = scale * (sign * (fwd * eta
                                  + rev * (1.0 + gamma + eta))) / n_vt
        return current, di_dvs, di_dvd

    def subthreshold_current(self, kind: str, vgs, vds, vsb,
                             length, width, vt_shift=0.0) -> np.ndarray:
        """Channel current magnitude [A] for gate-source / drain-source
        bias magnitudes ``vgs``/``vds`` and reverse source-body bias
        ``vsb``. Convenience wrapper over the branch evaluators."""
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        vsb = np.asarray(vsb, dtype=float)
        if kind == NMOS:
            vs = vsb
            current, _, __ = self.nmos_branch(
                vgs + vs, vs, vs + vds, length, width, vt_shift)
            return current
        if kind == PMOS:
            vs = self.technology.vdd - vsb
            current, _, __ = self.pmos_branch(
                vs - vgs, vs, vs - vds, length, width, vt_shift)
            return current
        raise ValueError(f"kind must be {NMOS!r} or {PMOS!r}, got {kind!r}")

    def off_current(self, kind: str, length, width, vds=None,
                    vt_shift=0.0) -> np.ndarray:
        """Leakage of a single OFF device (``Vgs = 0``, grounded source).

        ``vds`` defaults to the full supply voltage.
        """
        if vds is None:
            vds = self.technology.vdd
        return self.subthreshold_current(
            kind, 0.0, vds, 0.0, length, width, vt_shift)

    def gate_current(self, kind: str, vg, vs, vd, length,
                     width) -> np.ndarray:
        """Gate-oxide tunneling current magnitude [A].

        A simple exponential oxide-field model,
        ``I = J0*W*L * mean(exp((Vox_s - VDD)/v0), exp((Vox_d - VDD)/v0))``
        with ``Vox`` the gate-to-terminal voltage magnitude in the
        tunneling-active polarity (gate high for NMOS, channel high for
        PMOS). Calibrated so a minimum ON device draws ~1 nA at the
        default 90 nm-class ``J0`` — the optional second leakage
        mechanism alongside subthreshold conduction.
        """
        i_gs, i_gd = self.gate_current_split(kind, vg, vs, vd, length, width)
        return i_gs + i_gd

    def gate_current_split(self, kind: str, vg, vs, vd, length,
                           width) -> Tuple[np.ndarray, np.ndarray]:
        """Gate tunneling split per channel terminal.

        Returns ``(i_gate_source, i_gate_drain)`` magnitudes [A]; the
        current flows gate -> terminal for NMOS (tunneling when the gate
        is high) and terminal -> gate for PMOS.
        """
        tech = self.technology
        vg = np.asarray(vg, dtype=float)
        vs = np.asarray(vs, dtype=float)
        vd = np.asarray(vd, dtype=float)
        area = np.asarray(width, dtype=float) * np.asarray(length,
                                                           dtype=float)
        scale = 0.5 * tech.gate_j0_per_area * area
        if kind == NMOS:
            vox_s, vox_d = vg - vs, vg - vd
        elif kind == PMOS:
            vox_s, vox_d = vs - vg, vd - vg
        else:
            raise ValueError(f"kind must be {NMOS!r} or {PMOS!r}, got {kind!r}")
        return (scale * _clamped_exp((vox_s - tech.vdd) / tech.gate_v0),
                scale * _clamped_exp((vox_d - tech.vdd) / tech.gate_v0))

    def effective_vt(self, kind: str, length, vds, vsb, vt_shift=0.0) -> np.ndarray:
        """Effective threshold magnitude [V] at the given bias."""
        tech = self.technology
        vt0 = tech.vt.nominal_n if kind == NMOS else tech.vt.nominal_p
        return (vt0 + np.asarray(vt_shift, dtype=float)
                + tech.body_effect * np.asarray(vsb, dtype=float)
                - tech.dibl * np.asarray(vds, dtype=float)
                - self.rolloff(length))
