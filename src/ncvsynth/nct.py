"""Optimal search over the NOT/CNOT/Toffoli library and Toffoli substitution.

NCT states are purely Boolean, so the same bucket-queue engine settles the
whole space quickly (12 placed gates: 3 NOT + 6 CNOT + 3 TOF), each gate
weighing (1, 0).  Every table's ``cost_of`` is the gate count; its ``mode``
is one of two:

* ``gate-count``   - the engine's table: its witnesses are the deterministic
                     first-found optimal circuits.  ``analysis.compare``
                     bounds the substituted cost of every optimal circuit
                     from this table alone (:func:`_substituted_bounds`).
* ``lex-max``      - derived from the gate counts: each witness is a
                     gate-count-optimal circuit of greatest substituted NCV
                     cost (see :func:`substituted_weight`), how far off an
                     optimal NCT circuit can be; ``secondary_of`` is that cost.

A table's ``metric`` is the substitution metric it was built with (a
gate-count table's weights do not depend on it, and it may be None).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import MetricMismatch
from .model import (CNOT, FULL_TOPOLOGY, GATE_CODES, GATES, N_FUNCTIONS, Circuit, CostMetric,
                    Gate, Topology, V, VPLUS, circuit_cost, rank_tables, realized_function)
from .search import SearchOptions, SynthesisTable, WitnessPaths, settle_all


def toffoli_decomposition(control1: int, control2: int, target: int) -> tuple[Gate, ...]:
    """The 5-gate NCV realization of TOF(x, y; z)."""
    x, y, z = control1, control2, target
    return (V(y, z), CNOT(x, y), VPLUS(y, z), CNOT(x, y), V(x, z))


def toffoli_substitute(circuit: Circuit) -> Circuit:
    """Replace every TOF with its 5-gate NCV realization; keep NOT/CNOT."""
    gates: list[Gate] = []
    for g in circuit:
        if g.kind == "TOF":
            gates.extend(toffoli_decomposition(g.controls[0], g.controls[1], g.target))
        else:
            gates.append(g)
    return Circuit(tuple(gates), "NCV")


def substituted_weight(gate: Gate, metric: CostMetric) -> int:
    """A gate's cost under ``metric`` after Toffoli substitution: a TOF
    weighs the metric cost of its 5-gate NCV realization (NCV-111: 5,
    NCV-012: 8, NCV-155: 25), any other gate its own metric weight."""
    if gate.kind == "TOF":
        return circuit_cost(Circuit(toffoli_decomposition(*gate.controls, gate.target)), metric)
    return metric.weight(gate)


GATE_COUNT = "gate-count"


@functools.cache
def _successors(gates: tuple[Gate, ...]) -> np.ndarray:
    """(rank, gate index) -> rank of the function the gate realizes after
    the function of that rank: int32, read-only, built once per gate list."""
    functions = rank_tables()
    table = np.empty((N_FUNCTIONS, len(gates)), dtype=np.int32)
    for j, gate in enumerate(gates):
        perm = np.array(realized_function(Circuit((gate,), "NCT")), dtype=np.uint8)
        table[:, j] = functions.ranks_of(perm[functions.outputs])
    table.setflags(write=False)
    return table


def _substituted_bounds(
    nct_table: SynthesisTable, metric: CostMetric
) -> tuple[np.ndarray, np.ndarray]:
    """The least and the greatest substituted cost under ``metric`` over
    every gate-count-optimal circuit of each function, by rank.  Every
    prefix of such a circuit is gate-count-optimal, so the bounds at gate
    count k fold from those at k - 1, along each gate g with gc(g o f) =
    gc(f) + 1.  A function no such gate reaches keeps a bound past every
    cost."""
    gc = nct_table.costs
    successors = _successors(nct_table.gate_list)
    weights = np.array([substituted_weight(g, metric) for g in nct_table.gate_list])
    least = np.where(gc == 0, 0, np.iinfo(np.int64).max)
    greatest = np.where(gc == 0, 0, np.iinfo(np.int64).min)
    for k in range(1, int(gc.max(initial=0)) + 1):
        before = np.flatnonzero(gc == k - 1)
        after = successors[before]
        row, gate = np.nonzero(gc[after] == k)
        reached, source, weight = after[row, gate], before[row], weights[gate]
        np.minimum.at(least, reached, least[source] + weight)
        np.maximum.at(greatest, reached, greatest[source] + weight)
    return least, greatest


def _lex_max_table(nct_table: SynthesisTable, metric: CostMetric) -> SynthesisTable:
    """The lex-max table of ``metric`` from a gate-count table's gate counts.
    A function f of gate count k takes its last gate g from the pair (s, g)
    first in (source rank, gate index) order with gc(s) = k - 1 and
    greatest(s) + w(g) = greatest(f); as NCT gates are involutions, s is g
    after f.  Walking those pairs back from every function gives its
    witness, whose substituted cost is then greatest(f)."""
    gates, gc = nct_table.gate_list, nct_table.costs
    successors = _successors(gates)
    weights = np.array([substituted_weight(g, metric) for g in gates])
    _, greatest = _substituted_bounds(nct_table, metric)
    tied = gc[successors] == gc[:, None] - 1
    tied &= greatest[successors] + weights == greatest[:, None]
    order = successors.astype(np.int64) * len(gates) + np.arange(len(gates))
    last = np.where(tied, order, np.iinfo(np.int64).max).argmin(axis=1)
    source = successors[np.arange(N_FUNCTIONS), last]
    codes = np.array([GATE_CODES[g] for g in gates], dtype=np.uint8)
    width = int(gc.max(initial=0))
    ids = np.full((N_FUNCTIONS, width), len(GATES), dtype=np.uint8)
    current = np.arange(N_FUNCTIONS)
    # Step j writes the j-th gate from the end of every witness that long.
    for j in range(width):
        rows = np.flatnonzero(gc > j)
        ids[rows, gc[rows] - 1 - j] = codes[last[current[rows]]]
        current[rows] = source[current[rows]]
    paths = WitnessPaths(gc, ids, gc.astype(np.int32))
    return SynthesisTable(metric, nct_table.topology, "NCT", gates, paths, greatest,
                          mode="lex-max", states_visited=nct_table.states_visited)


def settle_all_nct(
    mode: str = GATE_COUNT,
    metric: CostMetric | None = None,
    options: SearchOptions | None = None,
    topology: Topology = FULL_TOPOLOGY,
) -> SynthesisTable:
    """Complete optimal NCT table of the cost mode ``mode`` and ``metric``:
    the gate-count table settled under ``options``, or the lex-max table
    derived from it, which needs a substitution metric (MetricMismatch)."""
    if mode not in (GATE_COUNT, "lex-max"):
        raise ValueError(f"unknown NCT cost mode {mode!r}")
    if mode == "lex-max" and metric is None:
        raise MetricMismatch(f"mode {mode!r} needs a substitution metric")
    table = settle_all(metric, topology, options, library="NCT", mode=GATE_COUNT)
    return table if mode == GATE_COUNT else _lex_max_table(table, metric)
