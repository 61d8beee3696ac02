"""Cell leakage characterization.

Implements both characterization modes of Section 2.1 of the paper:

* **Monte-Carlo** (:mod:`repro.characterization.montecarlo`) — sample the
  cell leakage distribution directly through the DC solver;
* **Analytical** (:mod:`repro.characterization.fitting` +
  :mod:`repro.characterization.moments`) — fit ``X = a*exp(b*L + c*L^2)``
  and compute exact moments from the non-central chi-square MGF
  (paper eqs. (1)-(5), with the corrected ``-1/2`` exponent).

Plus the leakage-correlation mapping ``f_{m,n}`` of Section 2.1.3
(:mod:`repro.characterization.correlation_map`) and the Vt mean
multiplier (:mod:`repro.characterization.vt`).
"""

from repro.characterization.fitting import (
    LeakageFit,
    fit_leakage,
    fit_leakage_batch,
    sample_lengths,
)
from repro.characterization.moments import (
    log_mgf,
    mgf_moments,
    moments_numeric,
)
from repro.characterization.correlation_map import (
    pair_expectation,
    leakage_correlation,
    CorrelationMap,
)
from repro.characterization.montecarlo import mc_state_moments
from repro.characterization.vt import vt_mean_multiplier
from repro.characterization.characterizer import (
    StateCharacterization,
    CellCharacterization,
    LibraryCharacterization,
    characterize_library,
)
from repro.characterization.store import (
    characterization_document,
    dump_characterization,
    load_characterization,
    parse_characterization,
    save_characterization,
)

__all__ = [
    "LeakageFit",
    "fit_leakage",
    "fit_leakage_batch",
    "sample_lengths",
    "log_mgf",
    "mgf_moments",
    "moments_numeric",
    "pair_expectation",
    "leakage_correlation",
    "CorrelationMap",
    "mc_state_moments",
    "vt_mean_multiplier",
    "StateCharacterization",
    "CellCharacterization",
    "LibraryCharacterization",
    "characterize_library",
    "characterization_document",
    "dump_characterization",
    "load_characterization",
    "parse_characterization",
    "save_characterization",
]
