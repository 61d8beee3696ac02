"""Transistor-level cell netlists.

A :class:`CellNetlist` is a list of :class:`Transistor` elements between
named nodes. Two node names are reserved for the rails (:data:`VDD`,
:data:`GND`). For leakage evaluation, the *logic* nodes (cell inputs,
outputs, and internal latch nodes) are pinned to rail potentials
according to the evaluated state, while anonymous stack-internal nodes
are left free for the DC solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.devices.mosfet import NMOS, PMOS
from repro.exceptions import NetlistError

#: Reserved supply node name.
VDD = "vdd"
#: Reserved ground node name.
GND = "gnd"


@dataclass(frozen=True)
class Transistor:
    """One MOSFET in a cell netlist.

    Parameters
    ----------
    name:
        Unique name within the cell (e.g. ``"MN1"``).
    kind:
        :data:`~repro.devices.NMOS` or :data:`~repro.devices.PMOS`.
    gate / drain / source:
        Node names. The body terminal is implicit (GND for NMOS, VDD for
        PMOS), with the linearized body effect applied by the device
        model.
    width_mult:
        Width as a multiple of the technology minimum width.
    """

    name: str
    kind: str
    gate: str
    drain: str
    source: str
    width_mult: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (NMOS, PMOS):
            raise NetlistError(
                f"{self.name}: kind must be {NMOS!r} or {PMOS!r}, "
                f"got {self.kind!r}")
        if self.width_mult <= 0:
            raise NetlistError(
                f"{self.name}: width_mult must be positive, "
                f"got {self.width_mult!r}")
        if self.drain == self.source:
            raise NetlistError(
                f"{self.name}: drain and source must differ "
                f"(both {self.drain!r})")


@dataclass(frozen=True)
class CellNetlist:
    """Transistor netlist of a standard cell.

    Parameters
    ----------
    name:
        Cell name (e.g. ``"NAND2_X1"``).
    transistors:
        The devices.
    inputs:
        Ordered input pin node names.
    logic_nodes:
        Node names (beyond inputs and rails) whose potential is pinned to
        a rail according to the evaluated state — the cell output(s) and
        any internal full-swing nodes (latch nodes, local inverter
        outputs). Everything else with a channel terminal is a free
        stack-internal node.
    """

    name: str
    transistors: Tuple[Transistor, ...]
    inputs: Tuple[str, ...]
    logic_nodes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.transistors:
            raise NetlistError(f"{self.name}: empty netlist")
        names = [t.name for t in self.transistors]
        if len(set(names)) != len(names):
            raise NetlistError(f"{self.name}: duplicate transistor names")
        reserved = {VDD, GND}
        for pin in self.inputs:
            if pin in reserved:
                raise NetlistError(
                    f"{self.name}: input pin {pin!r} clashes with a rail name")
        overlap = set(self.inputs) & set(self.logic_nodes)
        if overlap:
            raise NetlistError(
                f"{self.name}: nodes {sorted(overlap)} are both inputs and "
                "logic nodes")

    def __hash__(self) -> int:
        # The solver's stamp cache hashes a netlist once per (cell,
        # state) system; the fields are immutable, so hash them once.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.name, self.transistors, self.inputs,
                           self.logic_nodes))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        # String hashes are salted per process: never ship the cache.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def channel_nodes(self) -> FrozenSet[str]:
        """All nodes touched by a channel (drain or source) terminal."""
        nodes = set()
        for t in self.transistors:
            nodes.add(t.drain)
            nodes.add(t.source)
        return frozenset(nodes)

    @property
    def free_nodes(self) -> Tuple[str, ...]:
        """Stack-internal nodes solved by the DC solver (sorted)."""
        pinned = {VDD, GND, *self.inputs, *self.logic_nodes}
        return tuple(sorted(self.channel_nodes - pinned))

    @property
    def n_devices(self) -> int:
        return len(self.transistors)

    def validate_state(self, state: Mapping[str, int]) -> None:
        """Check that ``state`` pins every input and logic node to 0/1."""
        for node in (*self.inputs, *self.logic_nodes):
            if node not in state:
                raise NetlistError(
                    f"{self.name}: state missing pinned node {node!r}")
            if state[node] not in (0, 1):
                raise NetlistError(
                    f"{self.name}: state[{node!r}] must be 0 or 1, "
                    f"got {state[node]!r}")

    def node_voltages(self, state: Mapping[str, int],
                      vdd: float) -> Dict[str, float]:
        """Rail potentials of all pinned nodes for a given logic state."""
        self.validate_state(state)
        voltages: Dict[str, float] = {VDD: vdd, GND: 0.0}
        for node in (*self.inputs, *self.logic_nodes):
            voltages[node] = vdd if state[node] else 0.0
        return voltages
