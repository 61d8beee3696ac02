"""Fitting cell leakage to the functional form ``X = a*exp(b*L + c*L**2)``.

Section 2.1.2: the analytical characterization samples each cell state's
leakage at a handful of deterministic channel-length points and regresses
``ln X`` on a quadratic in ``L``. The fitted triplet ``(a, b, c)`` feeds
both the exact moment formulas and the leakage-correlation mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CharacterizationError


@dataclass(frozen=True)
class LeakageFit:
    """Fitted ``X = a * exp(b*L + c*L**2)`` model for one cell state.

    ``rms_log_error`` is the RMS residual of ``ln X`` over the fit
    points — the irreducible model error the paper discusses (its cell
    mean/std errors come from the leakage curve not being exactly of
    this form, not from the moment mathematics).
    """

    a: float
    b: float
    c: float
    rms_log_error: float

    def evaluate(self, length) -> np.ndarray:
        """Model leakage at channel length(s) ``length`` [m]."""
        length = np.asarray(length, dtype=float)
        return self.a * np.exp(self.b * length + self.c * length * length)

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.a, self.b, self.c)


def sample_lengths(mu: float, sigma: float, n_points: int = 9,
                   span: float = 3.0) -> np.ndarray:
    """Deterministic channel-length sample points ``mu ± span*sigma``.

    Evenly spaced points across the ±3-sigma range, the natural design
    for a quadratic regression of a smooth monotone curve.
    """
    if n_points < 3:
        raise CharacterizationError(
            f"need at least 3 fit points for a quadratic, got {n_points}")
    return mu + sigma * np.linspace(-span, span, n_points)


def fit_leakage(lengths: np.ndarray, leakages: np.ndarray) -> LeakageFit:
    """Least-squares fit of ``ln X`` to a quadratic in ``L``.

    The one-state case of :func:`fit_leakage_batch`.

    Parameters
    ----------
    lengths:
        Channel-length sample points [m].
    leakages:
        Leakage current at each point [A]; must be positive.

    Returns
    -------
    LeakageFit
    """
    leakages = np.asarray(leakages, dtype=float)
    if leakages.ndim != 1:
        raise CharacterizationError(
            "lengths and leakages must be equal-length 1-D arrays")
    return fit_leakage_batch(lengths, leakages[None, :])[0]


def fit_leakage_batch(lengths: np.ndarray, leakages: np.ndarray,
                      names: Optional[Sequence[str]] = None
                      ) -> List[LeakageFit]:
    """Least-squares fits of ``ln X`` to a quadratic in ``L``, one per
    row of ``leakages``, all over the same ``lengths``.

    The lengths are shared, so the ``3 x P`` least-squares operator is
    computed once and applied to every row by a fixed-order
    elementwise accumulation over the ``P`` points (not a BLAS
    product): a row's fit is bit-identical whether it is fitted alone
    or in any batch.

    Parameters
    ----------
    lengths:
        Channel-length sample points [m], shape ``(P,)``.
    leakages:
        Leakage current per row and point [A], shape ``(N, P)``; must
        be positive.
    names:
        Optional name per row (e.g. ``"NAND2_X1 state I0=0,I1=1"``),
        used to say which row an error is about.
    """
    lengths = np.asarray(lengths, dtype=float)
    leakages = np.asarray(leakages, dtype=float)
    if (lengths.ndim != 1 or leakages.ndim != 2
            or leakages.shape[1] != lengths.size):
        raise CharacterizationError(
            "lengths must be 1-D and leakages an (N, P) array with one "
            "column per length")
    if lengths.size < 3:
        raise CharacterizationError("need at least 3 points to fit")
    bad = np.flatnonzero(np.any(leakages <= 0, axis=1))
    if bad.size:
        where = "" if names is None else f"{names[int(bad[0])]}: "
        raise CharacterizationError(
            f"{where}leakage samples must be positive to fit the "
            "exponential form")

    # Center and scale L for conditioning; map coefficients back.
    center = float(lengths.mean())
    scale = float(lengths.std())
    if scale == 0:
        raise CharacterizationError("length sample points are degenerate")
    z = (lengths - center) / scale
    operator = np.linalg.pinv(np.column_stack([z * z, z, np.ones_like(z)]))
    log_x = np.log(leakages)
    coeff = np.zeros((3, leakages.shape[0]))
    for point in range(lengths.size):
        coeff += operator[:, point, None] * log_x[:, point]
    c2, c1, c0 = coeff

    # ln X = c2*((L-m)/s)^2 + c1*(L-m)/s + c0
    c = c2 / (scale * scale)
    b = c1 / scale - 2.0 * c2 * center / (scale * scale)
    log_a = c0 - c1 * center / scale + c2 * center * center / (scale * scale)

    residual = (c[:, None] * lengths ** 2 + b[:, None] * lengths
                + log_a[:, None] - log_x)
    squares = np.zeros(leakages.shape[0])
    for point in range(lengths.size):
        squares += residual[:, point] ** 2
    rms = np.sqrt(squares / lengths.size)
    return [LeakageFit(a=a, b=b, c=c, rms_log_error=r)
            for a, b, c, r in zip(np.exp(log_a).tolist(), b.tolist(),
                                  c.tolist(), rms.tolist())]
