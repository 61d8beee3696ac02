"""A tiny vectorized DC subthreshold circuit solver.

This package stands in for the commercial SPICE + 90 nm PDK used in the
paper's cell characterization: cells are transistor netlists, logic
nodes are pinned to rail values for a given input state, and the
remaining stack-internal nodes are solved by Newton iteration on the
KCL residuals — batched across cell states and vectorized across
Monte-Carlo samples.
"""

from repro.spice.netlist import Transistor, CellNetlist, VDD, GND
from repro.spice.solver import solve_dc, solve_dc_batch, DCSolution
from repro.spice.leakage import state_leakage

__all__ = [
    "Transistor",
    "CellNetlist",
    "VDD",
    "GND",
    "solve_dc",
    "solve_dc_batch",
    "DCSolution",
    "state_leakage",
]
