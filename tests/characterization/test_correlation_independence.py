"""Characterization reads neither the WID correlation nor the D2D/WID
split of the channel length.

Cell characterization (eqs. (1)-(5)) sees the total sigma_L only; the
split and the correlation enter at chip level. The service keys its
characterization tier on that, so these properties are what make a
shared entry exact: over any correlation length and split, the total
sigma is bit-identical and so is every state's characterization.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization.characterizer import (
    characterization_inputs,
    characterize_library,
)
from repro.exceptions import CharacterizationError
from repro.process import synthetic_90nm
from repro.service.jobs import TechnologyConfig

#: One cell per cost class keeps each example's characterization short.
CELLS = ("INV_X1", "NAND3_X1", "AOI21_X1", "DFF_X1")
SIGMA_L, TEMPERATURE_C = 0.045, 70.0

corr_lengths = st.floats(min_value=0.05, max_value=5.0)
fractions = st.floats(min_value=0.0, max_value=1.0)


def _config(corr_length_mm: float, d2d_fraction: float) -> TechnologyConfig:
    return TechnologyConfig(corr_length_mm=corr_length_mm,
                            d2d_fraction=d2d_fraction, sigma_l=SIGMA_L,
                            temperature_c=TEMPERATURE_C)


def _table(characterization):
    return [(state.cell_name, state.state_label, state.mean, state.std,
             state.fit.a, state.fit.b, state.fit.c,
             state.fit.rms_log_error)
            for state in characterization.state_table()]


@pytest.fixture(scope="module")
def reference(library):
    return characterize_library(library, _config(0.5, 0.5).build(),
                                cells=CELLS)


@settings(max_examples=12, deadline=None)
@given(corr_length_mm=corr_lengths, d2d_fraction=fractions)
def test_characterization_is_bit_identical_over_correlations(
        library, reference, corr_length_mm, d2d_fraction):
    technology = _config(corr_length_mm, d2d_fraction).build()
    assert technology.length.sigma == reference.technology.length.sigma
    assert (characterization_inputs(technology)
            == characterization_inputs(reference.technology))
    got = characterize_library(library, technology, cells=CELLS)
    assert _table(got) == _table(reference)


@settings(max_examples=200, deadline=None)
@given(relative_sigma=st.floats(min_value=0.005, max_value=0.2),
       first=fractions, second=fractions)
def test_total_sigma_is_stored_and_kept_by_with_split(relative_sigma, first,
                                                      second):
    length = synthetic_90nm(d2d_fraction=first,
                            relative_sigma_l=relative_sigma).length
    sigma = relative_sigma * 50e-9
    assert length.sigma == sigma
    resplit = length.with_split(second)
    assert resplit.sigma == sigma
    assert resplit.with_split(first).sigma == sigma
    assert synthetic_90nm(d2d_fraction=second,
                          relative_sigma_l=relative_sigma).length.sigma \
        == resplit.sigma


def test_bound_view_shares_the_cell_table(reference):
    technology = _config(1.7, 0.2).build()
    view = reference.bound_to(technology)
    assert view.technology is technology
    assert view is not reference
    assert view.cell_names == reference.cell_names
    assert all(a is b for a, b in zip(view.state_table(),
                                      reference.state_table()))


@pytest.mark.parametrize("config", [
    TechnologyConfig(sigma_l=0.05, temperature_c=TEMPERATURE_C),
    TechnologyConfig(sigma_l=SIGMA_L, temperature_c=71.0),
    TechnologyConfig(sigma_l=SIGMA_L)])
def test_binding_refuses_a_technology_that_characterizes_differently(
        reference, config):
    with pytest.raises(CharacterizationError):
        reference.bound_to(config.build())
