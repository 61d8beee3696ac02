"""Batched Newton DC solver for cell leakage states.

Given a batch of ``(CellNetlist, pinned logic state)`` systems, one
channel-length sample axis shared by every system, and optional
per-transistor RDF Vt shifts, the solver finds the stack-internal node
voltages satisfying KCL and reports each system's supply-to-ground
leakage. :func:`solve_dc` is the one-system case of
:func:`solve_dc_batch`.

The whole batch is one array problem:

* **Stacked table.** Every transistor of every system is one row of a
  table (system, polarity, width, gate/source/drain rows). The rows
  index one ``(rows, S)`` node-voltage matrix: GND, VDD, then each
  system's free nodes. Pinned logic nodes map to the rail rows.
* **Cached stamps.** A system's transistor rows and scatter terms
  depend only on its netlist and state, so each is built once in local
  indices and kept in a bounded cache keyed by the netlist's value and
  the state's pinned levels. A batch's table is the concatenation of
  its stamps with the local indices offset.
* **One device call per iteration** for both polarities, on ``(T, S)``
  arrays, with the Vt roll-off of the shared lengths and (gates on
  rails) the gate-side barrier computed once.
* **KCL assembly** scatters residuals, Jacobian entries and supply
  outflow with ``np.bincount`` in transistor order, so every system
  sums its terms in the same order as a solve of that system alone.
* **Solve per free-node count.** Systems are grouped by their number of
  free nodes F and each group takes one batched ``numpy.linalg.solve``
  of its ``(F, F)`` Jacobians. A SPICE-style ``gmin`` to ground keeps
  them non-singular.
* **Convergence per system.** A system converges when its largest
  Newton step is below ``_VTOL``; it is then frozen, and dropped from
  the active table once such systems hold half its rows. Systems that have not converged restart from the
  next initial guess (0.5, 0.05, 0.95 of VDD); a singular Jacobian
  fails only its own system for the current guess. A system that fails
  every guess raises :class:`~repro.exceptions.SolverError` naming its
  cell and state, and no partial batch is returned.

Each system follows the same Newton trajectory as it would alone, so
iteration counts match a per-system solve and results agree with it to
the last ulp or so (summation of a cell's outflow across several
VDD-pinned nodes may associate differently).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.devices.mosfet import NMOS, PMOS, DeviceModel
from repro.exceptions import SolverError
from repro.spice.netlist import CellNetlist, GND, VDD

#: Conductance from every free node to ground [S]; standard convergence aid.
_GMIN = 1e-15

#: Maximum Newton step per iteration [V].
_MAX_STEP = 0.25

_MAX_ITER = 120
_VTOL = 1e-10

#: Initial guesses for the free nodes, as fractions of VDD, tried in order.
_GUESSES = (0.5, 0.05, 0.95)

#: Rows of the rail potentials in the node-voltage matrix.
_GND_ROW, _VDD_ROW, _FIRST_FREE_ROW = 0, 1, 2

#: Bound on cached per-(netlist, state) stamps; the default library has
#: 504 states.
_STAMP_CACHE_SIZE = 1024


@dataclass
class DCSolution:
    """Converged DC operating point for one cell state.

    Attributes
    ----------
    leakage:
        Supply-to-ground current per sample [A], shape ``(S,)``.
    free_voltages:
        Solved stack-internal node voltages, shape ``(S, F)`` where the
        column order matches ``netlist.free_nodes``.
    iterations:
        Newton iterations used.
    max_residual:
        Largest final KCL residual magnitude [A].
    """

    leakage: np.ndarray
    free_voltages: np.ndarray
    iterations: int
    max_residual: float


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each system's block begins."""
    return np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)


class _Stamp(NamedTuple):
    """The transistor rows and scatter terms of one ``(netlist, state)``
    system, in local indices.

    Free-node rows count from ``_FIRST_FREE_ROW`` and transistors from
    0; each scatter list is an ``(n, 4)`` array of ``(target,
    transistor, output, sign)`` terms in transistor order, whose
    targets count from 0 within the system (its free nodes, Jacobian
    entries, VDD-pinned nodes, or the system itself for ``gate_flow``).
    ``output`` 0 is the device current (or di/dvs, i_gs), 1 is di/dvd
    (or i_gd).
    """

    n_free: int
    n_high: int
    names: Tuple[str, ...]
    nmos: np.ndarray
    width_mult: np.ndarray
    terminals: np.ndarray
    residual: np.ndarray
    jacobian: np.ndarray
    outflow: np.ndarray
    gate_flow: np.ndarray


def _stamp(netlist: CellNetlist, state: Mapping[str, int]) -> _Stamp:
    """The cached :class:`_Stamp` of ``netlist`` in logic ``state``.

    A stamp depends only on the netlist and on which pinned nodes are
    high: with ``vdd > 0`` (validated by the technology) a pinned node
    is at VDD exactly when its logic value is 1.
    """
    netlist.validate_state(state)
    return _build_stamp(netlist, tuple(
        bool(state[node]) for node in (*netlist.inputs,
                                        *netlist.logic_nodes)))


@lru_cache(maxsize=_STAMP_CACHE_SIZE)
def _build_stamp(netlist: CellNetlist, levels: Tuple[bool, ...]) -> _Stamp:
    pinned = {VDD: True, GND: False}
    pinned.update(zip((*netlist.inputs, *netlist.logic_nodes), levels))
    free = {node: i for i, node in enumerate(netlist.free_nodes)}
    size = len(free)
    # One outflow accumulator per VDD-pinned node, in name order.
    high = sorted(node for node, is_high in pinned.items()
                  if is_high and node != GND)
    high_slot = {node: i for i, node in enumerate(high)}

    def row(node):
        if node in free:
            return _FIRST_FREE_ROW + free[node]
        return _VDD_ROW if pinned[node] else _GND_ROW

    residual, jacobian, outflow, gate_flow = [], [], [], []
    for index, t in enumerate(netlist.transistors):
        nmos = t.kind == NMOS
        # Current into the source node is +i for NMOS, -i for PMOS;
        # d(into_src)/dv carries the same sign.
        sign = 1.0 if nmos else -1.0
        for node, other, into, d_self, d_other in (
                (t.source, t.drain, sign, 0, 1),
                (t.drain, t.source, -sign, 1, 0)):
            if node in free:
                i = free[node]
                residual.append((i, index, 0, into))
                jacobian.append((i * size + i, index, d_self, into))
                if other in free:
                    jacobian.append((i * size + free[other], index,
                                     d_other, into))
            elif node in high_slot:
                outflow.append((high_slot[node], index, 0, -into))
        # Gate tunneling flows gate -> terminal for NMOS and
        # terminal -> gate for PMOS.
        for terminal, which in ((t.source, 0), (t.drain, 1)):
            origin, target = ((t.gate, terminal) if nmos
                              else (terminal, t.gate))
            if origin in high_slot:
                gate_flow.append((0, index, which, 1.0))
            if target in high_slot:
                gate_flow.append((0, index, which, -1.0))

    def frozen(values, dtype=float):
        array = np.array(values, dtype=dtype)
        array.flags.writeable = False
        return array

    transistors = netlist.transistors
    return _Stamp(
        n_free=size, n_high=len(high),
        names=tuple(t.name for t in transistors),
        nmos=frozen([t.kind == NMOS for t in transistors], bool),
        width_mult=frozen([t.width_mult for t in transistors]),
        terminals=frozen([[row(t.gate) for t in transistors],
                          [row(t.source) for t in transistors],
                          [row(t.drain) for t in transistors]], np.intp),
        residual=frozen(residual).reshape(-1, 4),
        jacobian=frozen(jacobian).reshape(-1, 4),
        outflow=frozen(outflow).reshape(-1, 4),
        gate_flow=frozen(gate_flow).reshape(-1, 4))


class _Table:
    """Stacked transistor table and scatter plan of a batch of systems.

    The systems' cached stamps, concatenated with their local indices
    offset into the batch. Transistors are stored NMOS first, then
    PMOS, so each polarity is one contiguous slice; the scatter lists
    keep system order and each system's transistor order. Every
    scatter list is a tuple of ``(system, target, position, sign)``
    arrays: ``target`` is the flat ``(row, sample)`` index the term
    adds into, one per sample, ``position`` the table row (offset by
    the table size for the second of a pair of device outputs) and
    ``sign`` the +-1 factor applied to it.

    Per-device constants are evaluated once: the polarity sign and
    width current of :meth:`DeviceModel.channel`, and — when every gate
    sits on a rail, as in every library cell — the gate-side
    :meth:`DeviceModel.barrier`. ``groups`` lists the systems of each
    free-node count F with the node-voltage rows, residual rows and
    Jacobian entries of their ``(F, F)`` blocks.
    """

    def __init__(self, systems, model: DeviceModel, n_samples: int,
                 vt_shifts, rolloff: np.ndarray) -> None:
        stamps = [_stamp(netlist, state) for netlist, state in systems]
        index = np.arange(len(stamps))
        self.n_samples = n_samples
        self.n_free = np.array([s.n_free for s in stamps], dtype=np.intp)
        self.free_start = free_start = _starts(self.n_free)
        entry_start = _starts(self.n_free ** 2)
        self.n_rows = int(self.n_free.sum())
        self.n_entries = int((self.n_free ** 2).sum())
        n_high = [s.n_high for s in stamps]
        self.high_sys = np.repeat(index, n_high)

        counts = [s.nmos.size for s in stamps]
        owner = np.repeat(index, counts)
        nmos = np.concatenate([s.nmos for s in stamps])
        # Stable NMOS-first permutation of the table rows.
        order = np.argsort(~nmos, kind="stable")
        self.position = np.empty_like(order)
        self.position[order] = np.arange(order.size)
        self.n_transistors = int(order.size)
        self.n_nmos = int(nmos.sum())
        self.sys = owner[order]
        tech = model.technology
        self.width = (np.concatenate([s.width_mult for s in stamps])
                      * tech.min_width)[order][:, None]
        self.sign = np.where(nmos[order], 1.0, -1.0)[:, None]
        self.scale = tech.i0_per_width * self.width
        # Node-voltage rows of each device's gate, source and drain.
        terminals = np.concatenate([s.terminals for s in stamps], axis=1)
        terminals = terminals + np.where(
            terminals >= _FIRST_FREE_ROW, free_start[owner], 0)
        self.terminals = terminals[:, order]
        if vt_shifts is None:
            self.shift = 0.0
        else:
            matrix = np.empty((order.size, n_samples))
            row = 0
            for stamp, shifts in zip(stamps, vt_shifts):
                for name in stamp.names:
                    matrix[row] = shifts.get(name, 0.0)
                    row += 1
            self.shift = matrix[order]
        self.base = None
        if np.all(self.terminals[0] < _FIRST_FREE_ROW):
            rails = np.zeros((_FIRST_FREE_ROW, n_samples))
            rails[_VDD_ROW] = tech.vdd
            self.base = _barrier(model, rails[self.terminals[0]],
                                 self.shift, self.n_nmos, rolloff)
        transistor_start = _starts(np.array(counts))
        self.residual = self._plan(
            [s.residual for s in stamps], free_start, transistor_start)
        self.jacobian = self._plan(
            [s.jacobian for s in stamps], entry_start, transistor_start)
        self.outflow = self._plan(
            [s.outflow for s in stamps], _starts(np.array(n_high)),
            transistor_start)
        self.gate_flow = self._plan(
            [s.gate_flow for s in stamps], index, transistor_start)

        self.groups = []
        for size in np.unique(self.n_free[self.n_free > 0]):
            members = np.flatnonzero(self.n_free == size)
            rows = free_start[members][:, None] + np.arange(size)
            entries = (entry_start[members][:, None, None]
                       + np.arange(size)[:, None] * size + np.arange(size))
            self.groups.append((int(size), members, _FIRST_FREE_ROW + rows,
                                rows, entries))

    def _plan(self, parts, target_start: np.ndarray,
              transistor_start: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Local ``(target, transistor, output, sign)`` terms per system
        -> batch ``(system, flat target, position, sign)`` arrays."""
        systems = np.repeat(np.arange(len(parts)),
                            [len(part) for part in parts])
        terms = np.concatenate(parts)
        targets, transistors, outputs = terms[:, :3].astype(np.intp).T
        positions = (self.position[transistors + transistor_start[systems]]
                     + self.n_transistors * outputs)
        flat = ((targets + target_start[systems])[:, None] * self.n_samples
                + np.arange(self.n_samples))
        return systems, flat, positions, terms[:, 3:4]


def _barrier(model: DeviceModel, vg: np.ndarray, shift, n_nmos: int,
             rolloff: np.ndarray) -> np.ndarray:
    """:meth:`DeviceModel.barrier` of NMOS-first rows with gates ``vg``."""
    return np.concatenate([
        model.barrier(kind, vg[lo:hi],
                      shift if np.ndim(shift) == 0 else shift[lo:hi], rolloff)
        for kind, lo, hi in ((NMOS, 0, n_nmos), (PMOS, n_nmos, len(vg)))])


class _Active:
    """The rows of a :class:`_Table` that belong to a subset of systems.

    Positions in the scatter lists are remapped to the compacted table;
    targets keep their batch-wide flat numbering, so each scatter is
    one ``np.bincount``.
    """

    def __init__(self, table: _Table, active: np.ndarray) -> None:
        keep = np.flatnonzero(active[table.sys])
        self.n = int(keep.size)
        self.n_nmos = int(np.count_nonzero(keep < table.n_nmos))
        self.width = table.width[keep]
        self.sign = table.sign[keep]
        self.scale = table.scale[keep]
        self.terminals = table.terminals[:, keep]
        self.shift = (table.shift if np.ndim(table.shift) == 0
                      else table.shift[keep])
        self.base = None if table.base is None else table.base[keep]
        remap = np.full(2 * table.n_transistors, -1, dtype=np.intp)
        remap[keep] = np.arange(self.n)
        remap[keep + table.n_transistors] = np.arange(self.n) + self.n

        def select(plan):
            systems, flat, positions, signs = plan
            mask = active[systems]
            return flat[mask].ravel(), remap[positions[mask]], signs[mask]

        self.residual = select(table.residual)
        self.jacobian = select(table.jacobian)
        self.outflow = select(table.outflow)
        self.gate_flow = select(table.gate_flow)

    def branches(self, model: DeviceModel, voltages: np.ndarray,
                 rolloff) -> Tuple[np.ndarray, np.ndarray]:
        """Channel currents ``(T, S)`` and stacked ``[di/dvs; di/dvd]``."""
        base = self.base
        if base is None:
            base = _barrier(model, voltages[self.terminals[0]], self.shift,
                            self.n_nmos, rolloff)
        vs, vd = voltages[self.terminals[1:]]
        current, di_dvs, di_dvd = model.channel(base, self.sign, vs, vd,
                                                self.scale)
        return current, np.concatenate([di_dvs, di_dvd])

    def gate_currents(self, model: DeviceModel, voltages: np.ndarray,
                      length) -> np.ndarray:
        """Stacked ``[i_gate_source; i_gate_drain]`` per device."""
        vg, vs, vd = voltages[self.terminals]
        split = self.n_nmos
        (gs_n, gd_n), (gs_p, gd_p) = (
            model.gate_current_split(kind, vg[lo:hi], vs[lo:hi], vd[lo:hi],
                                     length, self.width[lo:hi])
            for kind, lo, hi in ((NMOS, 0, split), (PMOS, split, self.n)))
        return np.concatenate([gs_n, gs_p, gd_n, gd_p])


def _scatter(n_targets: int, plan, values: np.ndarray) -> np.ndarray:
    """Sum ``sign * values[position]`` into ``n_targets`` rows, in order.

    ``np.bincount`` adds its weights one by one in input order, like
    ``np.add.at``, so every target sums its terms in transistor order.
    """
    flat, positions, signs = plan
    n_samples = values.shape[1]
    return np.bincount(flat, (values[positions] * signs).ravel(),
                       n_targets * n_samples).reshape(n_targets, n_samples)


@lru_cache(maxsize=None)
def _gmin_eye(size: int) -> np.ndarray:
    """``_GMIN * I`` of one ``(size, size)`` block (read-only)."""
    eye = _GMIN * np.eye(size)
    eye.flags.writeable = False
    return eye


def _newton_update(size: int, vrows: np.ndarray, rows: np.ndarray,
                   entries: np.ndarray, residual, jacobian, voltages,
                   vdd: float):
    """One Newton step for ``G`` systems with ``size`` free nodes each.

    ``vrows`` ``(G, F)``, ``rows`` and ``entries`` ``(G, F, F)`` locate
    their free nodes in the node-voltage matrix and the residual, and
    their Jacobian blocks. Writes the updated voltages of systems whose
    Jacobian factored (a singular one fails only its own system) and
    returns ``(failed, settled)`` masks, ``failed`` None when every
    Jacobian factored; ``settled`` systems took a step below
    ``_VTOL``.
    """
    x = voltages[vrows].transpose(0, 2, 1)
    r = residual[rows].transpose(0, 2, 1) + _GMIN * x
    jac = jacobian[entries].transpose(0, 3, 1, 2) + _gmin_eye(size)
    failed = None
    try:
        delta = np.linalg.solve(jac, -r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        failed = np.zeros(len(rows), dtype=bool)
        delta = np.zeros_like(r)
        for g in range(len(rows)):
            try:
                delta[g] = np.linalg.solve(jac[g], -r[g][..., None])[..., 0]
            except np.linalg.LinAlgError:
                failed[g] = True
    delta = np.minimum(np.maximum(delta, -_MAX_STEP), _MAX_STEP)
    x = np.minimum(np.maximum(x + delta, -0.2), vdd + 0.2)
    settled = np.abs(delta).max(axis=(1, 2)) < _VTOL
    if failed is None:
        voltages[vrows] = x.transpose(0, 2, 1)
    else:
        voltages[vrows[~failed]] = x[~failed].transpose(0, 2, 1)
        settled &= ~failed
    return failed, settled


def solve_dc_batch(
    systems: Sequence[Tuple[CellNetlist, Mapping[str, int]]],
    model: DeviceModel,
    length,
    vt_shifts: Optional[Sequence[Optional[Mapping[str, np.ndarray]]]] = None,
    include_gate_leakage: bool = False,
) -> List[DCSolution]:
    """Solve many cell states at once; one :class:`DCSolution` each.

    Parameters
    ----------
    systems:
        ``(netlist, state)`` pairs; ``state`` gives logic values (0/1)
        for every input and logic node of its netlist.
    model:
        Device model (technology-bound).
    length:
        Channel length per sample [m], scalar or shape ``(S,)``, shared
        by every system. All devices in a cell share the length (the
        within-cell lengths are fully correlated; Section 2.1.1 of the
        paper).
    vt_shifts:
        Optional per-system mappings of transistor name to an RDF
        threshold shift [V], scalar or ``(S,)``; missing names (and
        ``None`` entries) get zero.
    include_gate_leakage:
        Also account for gate-oxide tunneling (an extension beyond the
        paper's subthreshold-only model). Gate currents are evaluated at
        the subthreshold operating point without re-solving KCL — they
        are injected at rail-pinned gate nodes and are small compared to
        the channel currents of the devices that set the free-node
        voltages, so the feedback on those voltages is second order.

    Raises
    ------
    SolverError
        If Newton iteration fails to converge from every initial guess
        for any system; the message names the first such cell and state.
    """
    tech = model.technology
    length = np.atleast_1d(np.asarray(length, dtype=float))
    n_samples = length.shape[0]
    if not systems:
        return []
    if vt_shifts is not None:
        vt_shifts = [shifts or {} for shifts in vt_shifts]
    rolloff = model.rolloff(length)
    table = _Table(systems, model, n_samples, vt_shifts, rolloff)
    n_systems = len(systems)
    voltages = np.zeros((_FIRST_FREE_ROW + table.n_rows, n_samples))
    voltages[_VDD_ROW] = tech.vdd

    def kcl(active: _Active):
        current, derivs = active.branches(model, voltages, rolloff)
        return (_scatter(table.n_rows, active.residual, current),
                _scatter(table.n_entries, active.jacobian, derivs), current)

    done = table.n_free == 0
    iterations = np.zeros(n_systems, dtype=int)
    free_rows = _FIRST_FREE_ROW + np.arange(table.n_rows)
    row_system = np.repeat(np.arange(n_systems), table.n_free)
    for guess_level in _GUESSES:
        active = ~done
        if not active.any():
            break
        voltages[free_rows[active[row_system]]] = guess_level * tech.vdd
        view = _Active(table, active)
        for iteration in range(1, _MAX_ITER + 1):
            residual, jacobian, _ = kcl(view)
            shrunk = False
            for size, members, vrows, rows, entries in table.groups:
                live = active[members]
                if not live.all():
                    if not live.any():
                        continue
                    members, vrows, rows, entries = (
                        members[live], vrows[live], rows[live],
                        entries[live])
                failed, settled = _newton_update(
                    size, vrows, rows, entries, residual, jacobian,
                    voltages, tech.vdd)
                if settled.any():
                    finished = members[settled]
                    done[finished] = True
                    iterations[finished] = iteration
                    active[finished] = False
                    shrunk = True
                if failed is not None:
                    active[members[failed]] = False
                    shrunk = True
            if not shrunk:
                continue
            if not active.any():
                break
            # Converged and failed systems leave the table once they
            # hold half its rows: until then evaluating their (frozen)
            # rows costs less than compacting. Their scatter targets
            # are their own, so the active systems' sums are unchanged.
            if np.count_nonzero(active[table.sys]) * 2 < view.n:
                view = _Active(table, active)

    if not done.all():
        netlist, state = systems[int(np.flatnonzero(~done)[0])]
        raise SolverError(
            f"{netlist.name}: DC solve failed to converge for state "
            f"{dict(state)!r}")

    everything = _Active(table, np.ones(n_systems, dtype=bool))
    residual, _, current = kcl(everything)
    outflow = _scatter(len(table.high_sys), everything.outflow, current)
    supply = np.zeros((n_systems, n_samples))
    np.add.at(supply, table.high_sys, outflow)
    if include_gate_leakage:
        gate = everything.gate_currents(model, voltages, length)
        supply = supply + _scatter(n_systems, everything.gate_flow, gate)

    solutions = []
    for k in range(n_systems):
        start = int(table.free_start[k])
        block = slice(start, start + int(table.n_free[k]))
        solutions.append(DCSolution(
            leakage=supply[k],
            free_voltages=np.ascontiguousarray(
                voltages[_FIRST_FREE_ROW:][block].T),
            iterations=int(iterations[k]),
            max_residual=(float(np.max(np.abs(residual[block])))
                          if table.n_free[k] else 0.0)))
    return solutions


def solve_dc(
    netlist: CellNetlist,
    state: Mapping[str, int],
    model: DeviceModel,
    length,
    vt_shifts: Optional[Mapping[str, np.ndarray]] = None,
    include_gate_leakage: bool = False,
) -> DCSolution:
    """Solve one cell state and return leakage per sample.

    The one-system case of :func:`solve_dc_batch`: ``vt_shifts`` maps
    transistor names of ``netlist`` to shifts; other parameters and the
    errors raised are as documented there.
    """
    shifts = None if vt_shifts is None else [vt_shifts]
    return solve_dc_batch([(netlist, state)], model, length, shifts,
                          include_gate_leakage=include_gate_leakage)[0]
