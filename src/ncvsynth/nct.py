"""Optimal search over the NOT/CNOT/Toffoli library and Toffoli substitution.

NCT states are purely Boolean, so the same bucket-queue engine settles the
whole space quickly (12 placed gates: 3 NOT + 6 CNOT + 3 TOF).  Three cost
modes feed the cross-library comparisons.  Each gives every gate a
(primary, secondary) weight pair, where w is the gate's substituted cost
(see :class:`NctCostModel`):

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

In every mode ``cost_of`` is the gate count.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class NctCostModel:
    """Per-gate weights of NCT circuits after substitution into a metric.

    The TOF weight equals the metric cost of the 5-gate decomposition:
    NCV-111 -> (1, 1, 5), NCV-012 -> (0, 1, 8), NCV-155 -> (1, 5, 25).
    """

    w_not: int
    w_cnot: int
    w_tof: int

    @classmethod
    def for_metric(cls, metric: CostMetric) -> "NctCostModel":
        tof = circuit_cost(Circuit(toffoli_decomposition(0, 1, 2)), metric)
        return cls(metric.w_not, metric.w_cnot, tof)

    def weight(self, gate: Gate) -> int:
        return {"NOT": self.w_not, "CNOT": self.w_cnot, "TOF": self.w_tof}[gate.kind]


GATE_COUNT = "gate-count"


def nct_weights(mode: str, metric: CostMetric | None, gates) -> list[Cost]:
    """Each gate's (primary, secondary) weight under the cost mode ``mode``."""
    if mode == GATE_COUNT:
        return [(1, 0)] * len(gates)
    if metric is None:
        raise MetricMismatch(f"mode {mode!r} needs a substitution metric")
    sub = NctCostModel.for_metric(metric)
    if mode == "lex-min":
        return [(1, sub.weight(g)) for g in gates]
    if mode == "lex-max":
        return [(1, -sub.weight(g)) for g in gates]
    raise ValueError(f"unknown NCT cost mode {mode!r}")


def mode_label(mode: str, metric: CostMetric | None) -> str:
    """The ``mode`` of the table ``settle_all_nct(mode, metric)`` returns."""
    return mode if metric is None else f"{mode}:{metric.slug}"


def settle_all_nct(
    mode: str = GATE_COUNT,
    metric: CostMetric | None = None,
    options: SearchOptions | None = None,
    topology: Topology = FULL_TOPOLOGY,
) -> SynthesisTable:
    """Complete optimal NCT table under one of the three cost modes."""
    gates = enumerate_gates(topology, "NCT")
    weights = nct_weights(mode, metric, gates)
    return settle_all(
        metric, topology, options, library="NCT", weights=weights,
        mode=mode_label(mode, metric),
    )


def substituted_witness_cost(
    table: SynthesisTable, func, metric: CostMetric
) -> int:
    """Metric cost of the table's witness after Toffoli substitution."""
    return circuit_cost(toffoli_substitute(table.witness(func)), metric)
