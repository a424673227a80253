"""Test fixtures and references built on the public API: random legal
circuits, the Boolean state of a function, a witness's substituted cost, a
table's CSV text and pin, and a reader of table JSONL."""

import hashlib
import io as stdio
import json

import numpy as np

from ncvsynth import io as nio
from ncvsynth.errors import CircuitParseError
from ncvsynth.model import (
    Circuit,
    CircuitState,
    CostMetric,
    FULL_TOPOLOGY,
    N_ROWS,
    Topology,
    apply_gate,
    circuit_cost,
    enumerate_gates,
    validate_permutation,
)
from ncvsynth.nct import toffoli_substitute


def random_legal_circuit(
    rng: np.random.Generator,
    n_gates: int,
    topology: Topology = FULL_TOPOLOGY,
) -> Circuit:
    """Uniform random walk over gates that are applicable at each step.

    Used by the seeded consistency regression; every prefix respects the
    Boolean-control restriction by construction.
    """
    pool = enumerate_gates(topology, "NCV")
    state = CircuitState.identity()
    gates = []
    while len(gates) < n_gates:
        candidates = []
        for g in pool:
            if all(state.rows[r][c] & 1 == 0 for c in g.controls for r in range(N_ROWS)):
                candidates.append(g)
        gate = candidates[int(rng.integers(len(candidates)))]
        state = apply_gate(state, gate)
        gates.append(gate)
    return Circuit(tuple(gates))


def state_of_permutation(perm) -> CircuitState:
    """The Boolean state whose row i spells out ``perm[i]``."""
    rows = []
    for out in validate_permutation(perm):
        rows.append((2 * ((out >> 2) & 1), 2 * ((out >> 1) & 1), 2 * (out & 1)))
    return CircuitState(tuple(rows))


def substituted_witness_cost(table, func, metric: CostMetric) -> int:
    """Metric cost of the table's witness after Toffoli substitution."""
    return circuit_cost(toffoli_substitute(table.witness(func)), metric)


def table_csv_text(costs) -> str:
    buf = stdio.StringIO()
    nio.write_table_csv(costs, buf)
    return buf.getvalue()


def table_pin(table) -> tuple[int, str]:
    """(states_visited, SHA-256 of write_table_jsonl and then of the
    little-endian int64 secondary costs): a whole table's pin."""
    buf = stdio.StringIO()
    nio.write_table_jsonl(table, buf)
    digest = hashlib.sha256(buf.getvalue().encode())
    digest.update(table.secondary_array().astype("<i8").tobytes())
    return table.states_visited, digest.hexdigest()


def read_table_jsonl(stream) -> dict[tuple[int, ...], tuple[int, Circuit]]:
    """The records of a table JSONL (``io.write_table_jsonl``), each
    function mapped to its cost and its parsed circuit."""
    out: dict[tuple[int, ...], tuple[int, Circuit]] = {}
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            func = nio.parse_function(record["function"])
            out[func] = (int(record["cost"]), nio.parse_circuit(record["circuit"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise CircuitParseError(f"bad JSONL record: {exc}") from None
    return out
