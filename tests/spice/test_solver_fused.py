"""The batched solver's hoisted and fused device evaluation.

:meth:`DeviceModel.channel` evaluates NMOS and PMOS rows in one pass
and the solver evaluates the gate-side barrier once when every gate
sits on a rail. Both are exact rewrites: the fused rows match the
per-polarity branch formulas bit for bit, and a netlist whose gate sits
on a free node (barrier re-evaluated every iteration) still follows the
per-system oracle.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.characterization.fitting import sample_lengths
from repro.devices.mosfet import NMOS, PMOS
from repro.spice.netlist import GND, VDD, CellNetlist, Transistor
from tests.spice.test_batched_solver import _assert_matches_oracle, _systems

#: NMOS stack whose lower device is diode-connected: its gate is the
#: free stack node, so the solver cannot hoist that device's barrier.
DIODE_STACK = CellNetlist(
    name="DIODE_STACK",
    transistors=(
        Transistor("MP", PMOS, gate="a", drain="y", source=VDD),
        Transistor("MN1", NMOS, gate="a", drain="y", source="n1"),
        Transistor("MN2", NMOS, gate="n1", drain="n1", source=GND,
                   width_mult=2.0)),
    inputs=("a",), logic_nodes=("y",))


def _diode_systems():
    return [(DIODE_STACK, {"a": a, "y": 1 - a}, f"DIODE_STACK/a={a}")
            for a in (0, 1)]


@pytest.fixture(scope="module")
def fit_lengths(technology):
    return sample_lengths(technology.length.nominal, technology.length.sigma,
                          9)


def test_mixed_polarity_rows_match_each_branch_bit_for_bit(device_model):
    rng = np.random.default_rng(11)
    rows, samples = 40, 9
    lengths = rng.normal(50e-9, 2.5e-9, samples)
    rolloff = device_model.rolloff(lengths)
    vg = rng.choice([0.0, 1.0], size=(rows, samples))
    vs, vd = rng.uniform(-0.2, 1.2, (2, rows, samples))
    width = rng.uniform(1.0, 4.0, (rows, 1)) * 120e-9
    shift = rng.normal(0.0, 0.02, (rows, samples))
    split = 17
    kinds = ((NMOS, 0, split, device_model.nmos_branch),
             (PMOS, split, rows, device_model.pmos_branch))
    base = np.concatenate([
        device_model.barrier(kind, vg[lo:hi], shift[lo:hi], rolloff)
        for kind, lo, hi, _ in kinds])
    sign = np.where(np.arange(rows) < split, 1.0, -1.0)[:, None]
    fused = device_model.channel(
        base, sign, vs, vd, device_model.technology.i0_per_width * width)
    for kind, lo, hi, branch in kinds:
        alone = branch(vg[lo:hi], vs[lo:hi], vd[lo:hi], lengths,
                       width[lo:hi], shift[lo:hi], rolloff=rolloff)
        for got, want in zip(fused, alone):
            assert np.array_equal(got[lo:hi], want), kind
            assert np.array_equal(np.signbit(got[lo:hi]),
                                  np.signbit(want)), kind


class TestGateOnFreeNode:
    def test_matches_oracle_alone(self, device_model, fit_lengths):
        _assert_matches_oracle(_diode_systems(), device_model, fit_lengths)

    def test_matches_oracle_beside_library_cells(
            self, library, device_model, fit_lengths):
        systems = _systems(library, ["NAND2_X1", "NOR3_X1"]) + \
            _diode_systems()
        _assert_matches_oracle(systems, device_model, fit_lengths)
        _assert_matches_oracle(systems, device_model, fit_lengths,
                               include_gate_leakage=True)

    def test_matches_oracle_with_vt_shifts(self, library, device_model,
                                           fit_lengths):
        rng = np.random.default_rng(5)
        systems = _diode_systems() + _systems(library, ["AOI21_X1"])
        shifts = [{t.name: rng.normal(0.0, 0.018, fit_lengths.size)
                   for t in net.transistors} for net, _, __ in systems]
        _assert_matches_oracle(systems, device_model, fit_lengths, shifts)


class TestNetlistHash:
    def test_hash_is_cached_and_value_based(self, library):
        netlist = library["NAND2_X1"].netlist
        twin = copy.deepcopy(netlist)
        assert twin is not netlist and twin == netlist
        assert hash(twin) == hash(netlist) == hash(netlist)

    def test_pickle_leaves_the_cached_hash_behind(self, library):
        netlist = library["NOR2_X1"].netlist
        hash(netlist)
        clone = pickle.loads(pickle.dumps(netlist))
        assert "_hash" not in vars(clone)
        assert clone == netlist and hash(clone) == hash(netlist)
