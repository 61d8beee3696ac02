"""Equivalence of the batched DC solver with a per-system Newton loop.

The oracle below is the solver as it was before batching: one Newton
loop per (cell, state), one device-model call per transistor. It lives
only here. The batched solve must follow the same trajectory for every
system: same iteration counts, and leakage and free voltages within
``rtol`` 1e-12 (the only differences are ulp-level, from associating a
cell's outflow over several VDD-pinned nodes in a different order).
"""

import copy
import dataclasses
from typing import Dict, Mapping, Optional

import numpy as np
import pytest
from hypothesis import given, settings

import repro.spice.solver as solver_module
from repro.characterization.fitting import sample_lengths
from repro.devices.mosfet import NMOS, DeviceModel
from repro.exceptions import NetlistError, SolverError
from repro.spice import solve_dc_batch
from repro.spice.netlist import CellNetlist, GND
from tests.cells.test_random_cells import random_cells

RTOL = 1e-12


def oracle_solve_dc(netlist: CellNetlist, state: Mapping[str, int],
                    model: DeviceModel, length,
                    vt_shifts: Optional[Mapping[str, np.ndarray]] = None,
                    include_gate_leakage: bool = False):
    """Per-system Newton loop: ``(leakage, free_voltages, iterations)``."""
    gmin, max_step, max_iter, vtol = 1e-15, 0.25, 120, 1e-10
    tech = model.technology
    length = np.atleast_1d(np.asarray(length, dtype=float))
    n_samples = length.shape[0]
    shifts = [0.0 if vt_shifts is None
              else np.asarray(vt_shifts.get(t.name, 0.0), dtype=float)
              for t in netlist.transistors]

    pinned = netlist.node_voltages(state, tech.vdd)
    free_nodes = netlist.free_nodes
    index = {node: i for i, node in enumerate(free_nodes)}
    n_free = len(free_nodes)
    high_nodes = {node for node, volt in pinned.items()
                  if volt == tech.vdd and node != GND}

    def node_voltage(node, x):
        if node in pinned:
            return np.full(n_samples, pinned[node])
        return x[:, index[node]]

    def evaluate(x):
        residual = np.zeros((n_samples, n_free))
        jacobian = np.zeros((n_samples, n_free, n_free))
        outflow: Dict[str, np.ndarray] = {
            node: np.zeros(n_samples) for node in high_nodes}
        for t, shift in zip(netlist.transistors, shifts):
            v_gate = node_voltage(t.gate, x)
            v_src = node_voltage(t.source, x)
            v_drn = node_voltage(t.drain, x)
            width = t.width_mult * tech.min_width
            if t.kind == NMOS:
                current, di_dvs, di_dvd = model.nmos_branch(
                    v_gate, v_src, v_drn, length, width, shift)
                into_src, into_drn = current, -current
                src_sign, drn_sign = 1.0, -1.0
            else:
                current, di_dvs, di_dvd = model.pmos_branch(
                    v_gate, v_src, v_drn, length, width, shift)
                into_src, into_drn = -current, current
                src_sign, drn_sign = -1.0, 1.0
            if t.source in index:
                i = index[t.source]
                residual[:, i] += into_src
                jacobian[:, i, i] += src_sign * di_dvs
                if t.drain in index:
                    jacobian[:, i, index[t.drain]] += src_sign * di_dvd
            elif t.source in outflow:
                outflow[t.source] -= into_src
            if t.drain in index:
                i = index[t.drain]
                residual[:, i] += into_drn
                jacobian[:, i, i] += drn_sign * di_dvd
                if t.source in index:
                    jacobian[:, i, index[t.source]] += drn_sign * di_dvs
            elif t.drain in outflow:
                outflow[t.drain] -= into_drn
        supply = np.zeros(n_samples)
        for node in high_nodes:
            supply += outflow[node]
        return residual, jacobian, supply

    def gate_supply(x):
        total = np.zeros(n_samples)
        for t in netlist.transistors:
            v_gate = node_voltage(t.gate, x)
            v_src = node_voltage(t.source, x)
            v_drn = node_voltage(t.drain, x)
            width = t.width_mult * tech.min_width
            i_gs, i_gd = model.gate_current_split(
                t.kind, v_gate, v_src, v_drn, length, width)
            if t.kind == NMOS:
                flows = ((t.gate, t.source, i_gs), (t.gate, t.drain, i_gd))
            else:
                flows = ((t.source, t.gate, i_gs), (t.drain, t.gate, i_gd))
            for origin, target, current in flows:
                if origin in high_nodes:
                    total += current
                if target in high_nodes:
                    total -= current
        return total

    if n_free == 0:
        x = np.zeros((n_samples, 0))
        _, __, supply = evaluate(x)
        if include_gate_leakage:
            supply = supply + gate_supply(x)
        return supply, x, 0

    for guess_level in (0.5, 0.05, 0.95):
        x = np.full((n_samples, n_free), guess_level * tech.vdd)
        for iterations in range(1, max_iter + 1):
            residual, jacobian, _ = evaluate(x)
            residual += gmin * x
            jacobian += gmin * np.eye(n_free)
            try:
                delta = np.linalg.solve(jacobian, -residual[..., None])[..., 0]
            except np.linalg.LinAlgError:
                break
            delta = np.clip(delta, -max_step, max_step)
            x = np.clip(x + delta, -0.2, tech.vdd + 0.2)
            if float(np.max(np.abs(delta))) < vtol:
                _, __, supply = evaluate(x)
                if include_gate_leakage:
                    supply = supply + gate_supply(x)
                return supply, x, iterations
    raise SolverError(f"{netlist.name}: oracle failed for {dict(state)!r}")


def _systems(library, names=None):
    cells = library if names is None else [library[n] for n in names]
    return [(cell.netlist, state.nodes, f"{cell.name}/{state.label}")
            for cell in cells for state in cell.states]


def _assert_matches_oracle(systems, model, lengths, vt_shifts=None,
                           include_gate_leakage=False):
    batch = solve_dc_batch([(net, state) for net, state, _ in systems],
                           model, lengths, vt_shifts,
                           include_gate_leakage=include_gate_leakage)
    assert len(batch) == len(systems)
    for k, ((net, state, label), solution) in enumerate(zip(systems, batch)):
        leakage, voltages, iterations = oracle_solve_dc(
            net, state, model, lengths,
            None if vt_shifts is None else vt_shifts[k],
            include_gate_leakage=include_gate_leakage)
        np.testing.assert_allclose(solution.leakage, leakage, rtol=RTOL,
                                   atol=0, err_msg=label)
        np.testing.assert_allclose(solution.free_voltages, voltages,
                                   rtol=RTOL, atol=0, err_msg=label)
        assert solution.free_voltages.shape == voltages.shape, label
        assert solution.iterations == iterations, label


@pytest.fixture(scope="module")
def fit_lengths(technology):
    return sample_lengths(technology.length.nominal, technology.length.sigma,
                          9)


class TestWholeLibraryEquivalence:
    def test_analytical_fit_lengths(self, library, device_model,
                                    fit_lengths):
        _assert_matches_oracle(_systems(library), device_model, fit_lengths)

    def test_mc_lengths_with_vt_shifts(self, library, device_model,
                                       technology):
        rng = np.random.default_rng(7)
        n_samples = 32
        lengths = np.maximum(
            rng.normal(technology.length.nominal, technology.length.sigma,
                       n_samples),
            0.2 * technology.length.nominal)
        systems = _systems(library)
        shifts = [{t.name: rng.normal(0.0, technology.vt.sigma, n_samples)
                   for t in net.transistors} for net, _, __ in systems]
        _assert_matches_oracle(systems, device_model, lengths, shifts)

    def test_gate_leakage(self, library, device_model, fit_lengths):
        _assert_matches_oracle(_systems(library), device_model, fit_lengths,
                               include_gate_leakage=True)


class TestMixedBatches:
    def test_zero_and_ten_free_node_systems(self, library, device_model,
                                            fit_lengths):
        systems = _systems(library, ["INV_X1", "FA_X1", "DFF_X1"])
        sizes = {len(net.free_nodes) for net, _, __ in systems}
        assert {0, 10} <= sizes
        _assert_matches_oracle(systems, device_model, fit_lengths)

    def test_empty_batch(self, device_model, fit_lengths):
        assert solve_dc_batch([], device_model, fit_lengths) == []


class TestBatchFailure:
    def test_non_convergence_names_cell_and_state(self, library,
                                                  device_model, fit_lengths,
                                                  monkeypatch):
        monkeypatch.setattr(solver_module, "_MAX_ITER", 1)
        systems = _systems(library, ["INV_X1", "NAND2_X1"])
        first_failing = next(s for s in systems if s[0].free_nodes)
        with pytest.raises(SolverError) as info:
            solve_dc_batch([(net, state) for net, state, _ in systems],
                           device_model, fit_lengths)
        message = str(info.value)
        assert message.startswith("NAND2_X1:")
        assert repr(dict(first_failing[1])) in message

    def test_singular_system_fails_only_itself(self, library, device_model,
                                               fit_lengths, monkeypatch):
        """Jacobians of the 10-node full adder never factor: the error
        names that cell, not the others sharing the batch."""
        real_solve = np.linalg.solve

        def solve(a, b):
            if a.shape[-1] == 10:
                raise np.linalg.LinAlgError("injected")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        systems = _systems(library, ["NAND2_X1", "FA_X1", "NOR3_X1"])
        with pytest.raises(SolverError, match="^FA_X1:"):
            solve_dc_batch([(net, state) for net, state, _ in systems],
                           device_model, fit_lengths)
        monkeypatch.setattr(np.linalg, "solve", real_solve)
        others = [s for s in systems if not s[2].startswith("FA_X1")]
        _assert_matches_oracle(others, device_model, fit_lengths)


def _leakages(systems, model, lengths):
    return [(solution.leakage, solution.free_voltages, solution.iterations)
            for solution in solve_dc_batch(
                [(net, state) for net, state, _ in systems], model,
                lengths)]


class TestStampCache:
    """Per-(netlist, state) stamps are cached by value and never leak
    technology values from one call into another."""

    @pytest.mark.parametrize("changes", [
        {"vdd": 0.8}, {"vdd": 1.3}, {"min_width": 200e-9},
        {"vdd": 1.1, "min_width": 90e-9}])
    def test_other_technologies_match_an_uncached_build(
            self, library, technology, device_model, fit_lengths, changes):
        systems = _systems(library, ["NAND3_X1", "DFF_X1", "XOR2_X1"])
        _leakages(systems, device_model, fit_lengths)  # warm the cache
        model = DeviceModel(dataclasses.replace(technology, **changes))
        warm = _leakages(systems, model, fit_lengths)
        solver_module._build_stamp.cache_clear()
        cold = _leakages(systems, model, fit_lengths)
        for (label, *_), got, want in zip(systems, warm, cold):
            assert np.array_equal(got[0], want[0]), label
            assert np.array_equal(got[1], want[1]), label
            assert got[2] == want[2], label
        _assert_matches_oracle(systems, model, fit_lengths)

    def test_equal_netlist_object_reuses_the_stamp(self, library):
        cell = library["NAND2_X1"]
        state = cell.states[1].nodes
        twin = copy.deepcopy(cell.netlist)
        assert twin == cell.netlist and twin is not cell.netlist
        stamp = solver_module._stamp(cell.netlist, state)
        assert solver_module._stamp(twin, state) is stamp
        # Same pinned levels given as a different mapping: same stamp.
        assert solver_module._stamp(cell.netlist, dict(state)) is stamp

    def test_same_name_different_netlist_gets_its_own_stamp(
            self, library, device_model, fit_lengths):
        netlist = library["NAND2_X1"].netlist
        wider = dataclasses.replace(netlist, transistors=tuple(
            dataclasses.replace(t, width_mult=2.0 * t.width_mult)
            for t in netlist.transistors))
        assert wider.name == netlist.name and wider != netlist
        state = library["NAND2_X1"].states[0].nodes
        assert (solver_module._stamp(wider, state)
                is not solver_module._stamp(netlist, state))
        systems = [(netlist, state, "narrow"), (wider, state, "wide")]
        narrow, wide = _leakages(systems, device_model, fit_lengths)
        assert np.all(wide[0] > 1.5 * narrow[0])
        _assert_matches_oracle(systems, device_model, fit_lengths)

    @pytest.mark.parametrize("state", [
        {"I0": 0, "Y": 1},              # missing input
        {"I0": 0, "I1": 2, "Y": 1},     # not a logic value
        {"I0": 0, "I1": [1], "Y": 1},   # not even hashable
    ])
    def test_invalid_state_raises_on_every_call(self, library, device_model,
                                                fit_lengths, state):
        netlist = library["NAND2_X1"].netlist
        # A valid state with the same pinned levels is cached first.
        solve_dc_batch([(netlist, {"I0": 0, "I1": 1, "Y": 1})],
                       device_model, fit_lengths)
        for _ in range(3):
            with pytest.raises(NetlistError, match="^NAND2_X1: state"):
                solve_dc_batch([(netlist, state)], device_model,
                               fit_lengths)

    def test_cache_is_bounded(self, library):
        info = solver_module._build_stamp.cache_info()
        assert info.maxsize == solver_module._STAMP_CACHE_SIZE
        netlist = library["INV_X1"].netlist
        state = library["INV_X1"].states[0].nodes
        for k in range(info.maxsize + 10):
            variant = dataclasses.replace(netlist, transistors=tuple(
                dataclasses.replace(t, width_mult=1.0 + k / 4096)
                for t in netlist.transistors))
            solver_module._stamp(variant, state)
        assert solver_module._build_stamp.cache_info().currsize == \
            info.maxsize


@settings(max_examples=25, deadline=None)
@given(cell=random_cells())
def test_stamp_cache_stays_bounded_over_random_cells(cell):
    """Novel netlists (all named ``RANDOM``) each get their own stamps
    and solve like an uncached build; the cache never outgrows its
    bound."""
    from repro.process import synthetic_90nm

    model = DeviceModel(synthetic_90nm())
    systems = [(cell.netlist, state.nodes, state.label)
               for state in cell.states]
    lengths = np.array([45e-9, 50e-9, 55e-9])
    warm = _leakages(systems, model, lengths)
    _assert_matches_oracle(systems, model, lengths)
    assert all(np.array_equal(leakage, again[0])
               for (leakage, *_), again in zip(
                   warm, _leakages(systems, model, lengths)))
    info = solver_module._build_stamp.cache_info()
    assert info.currsize <= info.maxsize == solver_module._STAMP_CACHE_SIZE
