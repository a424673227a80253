"""Published results and program-independent checks for the benchmark.

Nothing here imports ``ncvsynth``.  The circuit simulator, the function
algebra and the file parsers are written from the definitions in the paper
and the README (row index ``i = 4a + 2b + c``, controlled-V is the principal
square root of NOT), so a fault in the program cannot hide itself by also
breaking the reference.

Every ``check_*`` function returns a list of failure messages; an empty list
means the check passed.  The workloads collect these messages instead of
raising, so one wrong output never stops a run.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from fractions import Fraction

import numpy as np

# --------------------------------------------------------------------------
# Published results

NCV111_FULL_ROW = (
    1, 9, 51, 187, 417, 714, 1373, 3176, 4470, 4122, 10008, 5036, 1236, 8340, 1180,
)
NCV111_FULL_WA = "10.0319"
NCV111_PATH_ROW = (
    1, 7, 29, 82, 181, 334, 374, 334, 337, 753, 1652, 2654, 2482, 1674,
    1350, 3236, 6304, 6028, 1508, 1302, 2566, 4314, 2804, 14,
)
NCT_GC_ROW = (1, 12, 102, 625, 2780, 8921, 17049, 10253, 577)
NCT_GC_WA = "5.8655"
NCV012_COUNTS = {
    0: 8, 1: 48, 2: 192, 3: 408, 4: 480, 5: 192, 6: 16, 7: 192, 8: 1056,
    9: 3168, 10: 4320, 11: 672, 14: 2880, 15: 11520, 16: 4416, 21: 9856, 22: 896,
}
NCV012_WA = "14.9800"
#: Worst-case NCT/NCV ratio under ncv-012, and one function attaining it.
WORST_RATIO_012 = Fraction(8)
WORST_FUNCTION_012 = (7, 6, 4, 5, 2, 3, 1, 0)
WORST_PAIR_012 = (16, 2)  # (largest substituted NCT cost, NCV optimum)

N_FUNCTIONS = 40320


def row_counts(row) -> dict[int, int]:
    return {cost: n for cost, n in enumerate(row) if n}


def weighted_average_text(counts: dict[int, int]) -> str:
    """Exact weighted average rounded half-even to four decimals."""
    total = sum(counts.values())
    wa = Fraction(sum(c * n for c, n in counts.items()), total)
    return f"{float(round(wa, 4)):.4f}"


# --------------------------------------------------------------------------
# Gate weights: NCV metrics, NCT gate count, and the TOF substitution cost

METRIC_WEIGHTS = {
    "ncv-111": {"NOT": 1, "CNOT": 1, "V": 1, "V+": 1},
    "ncv-012": {"NOT": 0, "CNOT": 1, "V": 2, "V+": 2},
    "ncv-155": {"NOT": 1, "CNOT": 5, "V": 5, "V+": 5},
}
GATE_COUNT_WEIGHTS = {"NOT": 1, "CNOT": 1, "TOF": 1}


def circuit_cost(gates, weights) -> int:
    return sum(weights[kind] for kind, _, _ in gates)


# --------------------------------------------------------------------------
# Gates as (kind, controls, target) with lines 0, 1, 2 named a, b, c

LINE_NAMES = "abc"
_ARITY = {"NOT": 0, "CNOT": 1, "V": 1, "V+": 1, "TOF": 2}


def parse_circuit_text(text: str) -> list[tuple[str, tuple[int, ...], int]]:
    """Parse the circuit text format: one ``KIND controls... target`` a line."""
    gates = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        kind = line[0].upper()
        if kind not in _ARITY or len(line) != _ARITY[kind] + 2:
            raise ValueError(f"bad gate line {raw!r}")
        lines = [LINE_NAMES.index(name) for name in line[1:]]
        gates.append((kind, tuple(sorted(lines[:-1])), lines[-1]))
    return gates


def format_circuit_text(gates) -> str:
    return "".join(
        f"{kind} {' '.join(LINE_NAMES[l] for l in (*controls, target))}\n"
        for kind, controls, target in gates
    )


def program_gates(circuit) -> list[tuple[str, tuple[int, ...], int]]:
    """Convert a program ``Circuit`` into plain gate tuples."""
    return [(g.kind, tuple(g.controls), g.target) for g in circuit]


def parse_function(text: str) -> tuple[int, ...]:
    func = tuple(int(v) for v in text.split(","))
    if sorted(func) != list(range(8)):
        raise ValueError(f"not a permutation of 0..7: {text!r}")
    return func


def format_function(func) -> str:
    return ",".join(str(v) for v in func)


# --------------------------------------------------------------------------
# Unitary simulation, independent of the program's verify module

_X = np.array([[0, 1], [1, 0]], dtype=complex)
#: The principal square root of NOT: ((1+i) I + (1-i) X) / 2.
_V = ((1 + 1j) * np.eye(2) + (1 - 1j) * _X) / 2
_BLOCKS = {"NOT": _X, "CNOT": _X, "TOF": _X, "V": _V, "V+": _V.conj().T}
if not np.allclose(_V @ _V, _X):
    raise RuntimeError("V is not a square root of NOT")


def _bit(index: int, line: int) -> int:
    return (index >> (2 - line)) & 1


def gate_matrix(kind: str, controls, target: int) -> np.ndarray:
    """8x8 unitary of one gate; basis index i = 4a + 2b + c."""
    u = np.zeros((8, 8), dtype=complex)
    block = _BLOCKS[kind]
    for col in range(8):
        if all(_bit(col, c) for c in controls):
            t_in = _bit(col, target)
            for t_out in (0, 1):
                row = col & ~(1 << (2 - target)) | (t_out << (2 - target))
                u[row, col] = block[t_out, t_in]
        else:
            u[col, col] = 1.0
    return u


_ALL_GATES = [
    (kind, tuple(sorted(controls)), target)
    for kind in ("NOT", "CNOT", "V", "V+", "TOF")
    for target in range(3)
    for controls in itertools.combinations([l for l in range(3) if l != target], _ARITY[kind])
]
_GATE_INDEX = {g: i for i, g in enumerate(_ALL_GATES)}
_GATE_MATS = np.stack([gate_matrix(*g) for g in _ALL_GATES])


def unrealized(records, tol: float = 1e-9) -> list[tuple[int, ...]]:
    """Functions whose circuit's unitary is not their permutation matrix.

    ``records`` yields (function, gates).  Circuits are grouped by length and
    multiplied as stacked 8x8 products.
    """
    by_len: dict[int, tuple[list, list]] = {}
    for func, gates in records:
        funcs, ids = by_len.setdefault(len(gates), ([], []))
        funcs.append(func)
        ids.append([_GATE_INDEX[g] for g in gates])
    bad = []
    for length, (funcs, ids) in by_len.items():
        f = np.array(funcs, dtype=np.int64)
        acc = np.broadcast_to(np.eye(8, dtype=complex), (len(f), 8, 8)).copy()
        if length:
            steps = np.array(ids, dtype=np.int64)
            for step in range(length):
                acc = np.matmul(_GATE_MATS[steps[:, step]], acc)
        target = np.zeros_like(acc)
        target[np.arange(len(f))[:, None], f, np.arange(8)[None, :]] = 1.0
        err = np.abs(acc - target).reshape(len(f), -1).max(axis=1)
        bad.extend(tuple(int(v) for v in f[i]) for i in np.nonzero(err > tol)[0])
    return bad


def boolean_function(gates) -> tuple[int, ...]:
    """Function of a NOT/CNOT/TOF circuit by direct bit simulation."""
    out = []
    for i in range(8):
        bits = [_bit(i, l) for l in range(3)]
        for kind, controls, target in gates:
            if kind not in ("NOT", "CNOT", "TOF"):
                raise ValueError(f"{kind} is not a Boolean gate")
            if all(bits[c] for c in controls):
                bits[target] ^= 1
        out.append(4 * bits[0] + 2 * bits[1] + bits[2])
    return tuple(out)


# --------------------------------------------------------------------------
# Function algebra: inversion and line relabeling

def row_permutation(perm) -> np.ndarray:
    """Row index map induced by renaming line l to perm[l]."""
    return np.array(
        [sum(_bit(i, l) << (2 - perm[l]) for l in range(3)) for i in range(8)],
        dtype=np.int64,
    )


def relabel_functions(funcs: np.ndarray, perm) -> np.ndarray:
    """Conjugate each row of ``funcs`` (n x 8) by a line renaming."""
    rp = row_permutation(perm)
    out = np.empty_like(funcs)
    out[:, rp] = rp[funcs]
    return out


def invert_functions(funcs: np.ndarray) -> np.ndarray:
    return np.argsort(funcs, axis=1)


def line_symmetries(pairs) -> list[tuple[int, int, int]]:
    """Line permutations that map the set of interacting pairs onto itself."""
    pairs = {frozenset(p) for p in pairs}
    return [
        perm for perm in itertools.permutations(range(3))
        if {frozenset(perm[l] for l in p) for p in pairs} == pairs
    ]


TOPOLOGY_PAIRS = {"full": [(0, 1), (0, 2), (1, 2)], "path": [(0, 1), (1, 2)]}


# --------------------------------------------------------------------------
# Parsers for the program's text outputs

def read_table_csv(text: str) -> dict[tuple[int, ...], int]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["function", "cost"]:
        raise ValueError("table CSV lacks its function,cost header")
    return {parse_function(f): int(c) for f, c in rows[1:]}


def read_table_jsonl(text: str) -> list[tuple[tuple[int, ...], int, list]]:
    out = []
    for line in text.splitlines():
        record = json.loads(line)
        out.append((
            parse_function(record["function"]),
            int(record["cost"]),
            parse_circuit_text(record["circuit"]),
        ))
    return out


def read_histogram_text(text: str) -> tuple[dict[int, int], int | None, str | None]:
    """(counts, functions, weighted average) from a printed histogram block."""
    counts: dict[int, int] = {}
    total = wa = None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
            counts[int(parts[0])] = int(parts[1])
        elif line.startswith("functions:"):
            total = int(line.split(":")[1])
        elif line.startswith("weighted average:"):
            wa = line.split(":")[1].strip()
    return counts, total, wa


def read_comparison_csv(text: str):
    """(rows, summary lines); a row is (function, gc, sub, sub_min, sub_max, ncv)."""
    rows, summary = [], []
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    if header != ["function", "nct_gc", "nct_sub_cost", "nct_sub_min",
                  "nct_sub_max", "ncv_opt_cost"]:
        raise ValueError("comparison CSV lacks its header")
    for record in csv.reader(lines[1:]):
        if record[0].startswith("#"):
            summary.append(",".join(record))
            continue
        rows.append((parse_function(record[0]), *(int(v) for v in record[1:])))
    return rows, summary


# --------------------------------------------------------------------------
# Checks: each returns a list of failure messages

def check_histogram(name, counts, expected_counts, wa_text=None, expected_wa=None):
    failures = []
    if dict(counts) != dict(expected_counts):
        diff = sorted(
            c for c in set(counts) | set(expected_counts)
            if counts.get(c, 0) != expected_counts.get(c, 0)
        )
        failures.append(f"{name}: histogram differs from the published one at costs {diff}")
    if expected_wa is not None and wa_text != expected_wa:
        failures.append(f"{name}: weighted average {wa_text} is not {expected_wa}")
    return failures


def check_circuits(name, records, weights, costs=None):
    """Every (function, reported cost, gates) record realizes its function,
    its gates cost what it reports, and that cost matches ``costs``."""
    records = list(records)
    failures = []
    bad_cost = [
        f for f, cost, gates in records
        if circuit_cost(gates, weights) != cost or (costs is not None and costs.get(f) != cost)
    ]
    if bad_cost:
        failures.append(
            f"{name}: {len(bad_cost)} circuits whose cost is not the reported cost, "
            f"first {format_function(bad_cost[0])}"
        )
    bad = unrealized((f, gates) for f, _, gates in records)
    if bad:
        failures.append(
            f"{name}: {len(bad)} circuits fail the unitary check, "
            f"first {format_function(bad[0])}"
        )
    return failures


def check_complete(name, costs):
    if len(costs) != N_FUNCTIONS:
        return [f"{name}: {len(costs)} functions, not {N_FUNCTIONS}"]
    return []


def _keys(funcs: np.ndarray) -> np.ndarray:
    return (funcs << (3 * np.arange(8))).sum(axis=1)


def check_invariance(name, costs, symmetries):
    """Costs are equal under inversion and under every line symmetry."""
    funcs = np.array(list(costs), dtype=np.int64)
    values = np.array(list(costs.values()), dtype=np.int64)
    keys = _keys(funcs)
    order = np.argsort(keys)
    sorted_keys, sorted_values = keys[order], values[order]
    variants = [("inversion", invert_functions(funcs))]
    variants += [(f"relabeling {perm}", relabel_functions(funcs, perm)) for perm in symmetries]
    failures = []
    for label, images in variants:
        image_keys = _keys(images)
        pos = np.minimum(np.searchsorted(sorted_keys, image_keys), len(keys) - 1)
        mismatched = int(((sorted_keys[pos] != image_keys) | (sorted_values[pos] != values)).sum())
        if mismatched:
            failures.append(f"{name}: {mismatched} costs change under {label}")
    return failures


def check_oracle(name, costs, oracle, reach):
    """Agreement with exhaustive enumeration up to ``reach``; beyond it every
    function costs more than ``reach``."""
    failures = []
    wrong = [f for f, c in costs.items() if f in oracle and oracle[f] != c]
    if wrong:
        failures.append(f"{name}: {len(wrong)} costs differ from exhaustive enumeration")
    shallow = [f for f, c in costs.items() if f not in oracle and c <= reach]
    if shallow:
        failures.append(f"{name}: {len(shallow)} functions cost <= {reach} but are "
                        "beyond exhaustive enumeration")
    return failures


def check_comparison_rows(rows, ncv_costs=None):
    """ncv_opt <= sub_min <= sub <= sub_max on every row."""
    failures = []
    bad = [r for r in rows if not (r[5] <= r[3] <= r[2] <= r[4])]
    if bad:
        failures.append(
            f"comparison: {len(bad)} rows break ncv_opt <= sub_min <= sub <= sub_max, "
            f"first {format_function(bad[0][0])}"
        )
    if ncv_costs is not None and {r[0]: r[5] for r in rows} != dict(ncv_costs):
        failures.append("comparison: ncv_opt column differs from the written NCV table")
    return failures


def check_worst_case(rows):
    """Worst-case ratio sub_max / ncv_opt is 8, attained at 7,6,4,5,2,3,1,0."""
    failures = []
    worst = max((Fraction(r[4], r[5]) for r in rows if r[5] > 0), default=None)
    if worst != WORST_RATIO_012:
        failures.append(f"comparison: worst-case ratio {worst} is not {WORST_RATIO_012}")
    at = {r[0]: (r[4], r[5]) for r in rows}.get(WORST_FUNCTION_012)
    if at != WORST_PAIR_012:
        failures.append(
            f"comparison: {format_function(WORST_FUNCTION_012)} has "
            f"(sub_max, ncv_opt) {at}, not {WORST_PAIR_012}"
        )
    return failures


def check_exit_codes(outcomes):
    """``outcomes`` holds (label, expected exit code, actual exit code)."""
    return [
        f"{label}: exit code {got}, expected {expected}"
        for label, expected, got in outcomes if got != expected
    ]
