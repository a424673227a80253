"""Optimal search over the NOT/CNOT/Toffoli library and Toffoli substitution.

NCT states are purely Boolean, so the same bucket-queue engine settles the
whole space quickly (12 placed gates: 3 NOT + 6 CNOT + 3 TOF).  Three cost
modes feed the cross-library comparisons.  Each gives every gate a
(primary, secondary) weight pair, where w is the gate's substituted cost
(see :func:`substituted_weight`):

* ``gate-count``   - weights (1, 0): plain gate count; the table's
                     witnesses are the deterministic first-found optimal
                     circuits.
* ``lex-min``      - weights (1, w): minimize (gate count, substituted NCV
                     cost); the cheapest-to-substitute optimal circuit per
                     function.  ``secondary_of`` is its substituted cost.
* ``lex-max``      - weights (1, -w): minimize (gate count, -substituted NCV
                     cost); the dearest-to-substitute optimal circuit, i.e.
                     how far off an optimal NCT circuit can be after
                     substitution.  ``secondary_of`` is its substituted cost
                     negated.

In every mode ``cost_of`` is the gate count.  A table's ``mode`` is its
cost mode and its ``metric`` the substitution metric it was settled with
(a gate-count table's weights do not depend on it, and it may be None).
"""

from __future__ import annotations

from .errors import MetricMismatch
from .model import (
    CNOT,
    Circuit,
    CostMetric,
    FULL_TOPOLOGY,
    Gate,
    Topology,
    V,
    VPLUS,
    circuit_cost,
    enumerate_gates,
)
from .search import (
    Cost,
    SearchOptions,
    SynthesisTable,
    settle_all,
)


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


def nct_weights(mode: str, metric: CostMetric | None, gates) -> list[Cost]:
    """Each gate's (primary, secondary) weight under the cost mode ``mode``."""
    if mode == GATE_COUNT:
        return [(1, 0)] * len(gates)
    if metric is None:
        raise MetricMismatch(f"mode {mode!r} needs a substitution metric")
    if mode == "lex-min":
        return [(1, substituted_weight(g, metric)) for g in gates]
    if mode == "lex-max":
        return [(1, -substituted_weight(g, metric)) for g in gates]
    raise ValueError(f"unknown NCT cost mode {mode!r}")


def settle_all_nct(
    mode: str = GATE_COUNT,
    metric: CostMetric | None = None,
    options: SearchOptions | None = None,
    topology: Topology = FULL_TOPOLOGY,
) -> SynthesisTable:
    """Complete optimal NCT table under one of the three cost modes; the
    table's ``mode`` is ``mode`` and its ``metric`` is ``metric``."""
    gates = enumerate_gates(topology, "NCT")
    weights = nct_weights(mode, metric, gates)
    return settle_all(
        metric, topology, options, library="NCT", weights=weights, mode=mode
    )
