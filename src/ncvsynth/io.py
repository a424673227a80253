"""Text formats: circuits, functions, tables, histograms and comparisons.

Circuit files hold one gate per line (controls before target, lines named
a b c), with ``#`` starting a comment:

    NOT a
    CNOT a b
    V b c
    V+ b c
    TOF a b c

Functions are written as the 8 comma-separated outputs, e.g.
``7,6,4,5,2,3,1,0``.  Tables serialize as CSV with columns function,cost
(and optionally JSONL with one {function, cost, circuit} record per line),
comparison reports as CSV with the function and five cost columns.  Every
writer emits its rows in rank order, which is sorted order, so identical
tables serialize byte-for-byte identically; it formats them block by block
from rank-ordered arrays and one cached table of the 40,320 function texts
(built on first use, never at import).  A table crosses this boundary as
rank arrays only: ``write_table_csv`` takes a cost array by rank, such as
a table's ``costs``, and ``read_table_csv`` returns the ranks and costs of
the rows as int64 arrays, mapping each function field to its rank through
that table's text→rank map and rejecting a function that appears in more
than one row.
"""

from __future__ import annotations

import csv
import functools
import json

import numpy as np

from .analysis import ComparisonReport, CostHistogram
from .errors import CircuitParseError
from .model import (ARITY, Circuit, GATES, Gate, LINE_NAMES, N_FUNCTIONS, N_ROWS, function_rank,
                    parse_int, rank_tables, validate_permutation)
from .search import SynthesisTable


@functools.lru_cache(maxsize=256)
def parse_gate(text: str) -> Gate:
    """The gate a line of circuit text names; each distinct text is parsed
    once (gates are immutable, so callers share the instance)."""
    parts = text.split()
    kind = parts[0].upper()
    if kind not in ARITY:
        raise CircuitParseError(f"unknown gate kind {parts[0]!r}")
    if len(parts) != ARITY[kind] + 2:
        raise CircuitParseError(f"wrong number of lines for {kind}: {text!r}")
    try:
        lines = tuple(LINE_NAMES.index(p.lower()) for p in parts[1:])
    except ValueError:
        raise CircuitParseError(f"lines must be named a, b or c: {text!r}") from None
    try:
        return Gate(kind, lines[-1], lines[:-1])
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from None


def format_circuit(circuit: Circuit) -> str:
    return "".join(f"{g}\n" for g in circuit)


def parse_circuit(text: str, library: str | None = None) -> Circuit:
    """Parse circuit text; the library tag is inferred unless given."""
    gates = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            gates.append(parse_gate(line))
    if library is None:
        library = "NCT" if any(g.kind == "TOF" for g in gates) else "NCV"
    try:
        return Circuit(tuple(gates), library)
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from None


def format_function(func) -> str:
    return ",".join(str(v) for v in func)


def parse_function(text: str) -> tuple[int, ...]:
    try:
        values = [parse_int(v) for v in text.split(",")]
    except ValueError:
        raise CircuitParseError(f"function must be 8 integers: {text!r}") from None
    return validate_permutation(values)


# --------------------------------------------------------------------------
# Tables

#: Rows per formatted block of the table and report writers: big enough to
#: amortize per-call work, small enough that no block's Python strings add
#: to peak memory.
_BLOCK = 4096


@functools.cache
def _function_texts() -> np.ndarray:
    """Every function's text (``format_function``), in rank order: a
    read-only object array of 40,320 strings, built on first use in one pass
    over the rank tables' outputs (their digits, with commas between)."""
    outputs = rank_tables().outputs
    chars = np.full((len(outputs), 2 * N_ROWS - 1), ord(","), dtype=np.uint8)
    chars[:, ::2] = outputs + ord("0")
    texts = chars.view(f"S{2 * N_ROWS - 1}")[:, 0].astype(str).astype(object)
    texts.setflags(write=False)
    return texts


@functools.cache
def _function_ranks() -> dict[str, int]:
    """Each function text of ``_function_texts`` mapped to its rank, built
    on first use (only readers need it)."""
    return dict(zip(_function_texts().tolist(), range(N_FUNCTIONS)))


def write_table_csv(costs: np.ndarray, stream) -> None:
    """Header ``function,cost``, then one row per function in rank (sorted)
    order, written block by block.  ``costs`` is every function's cost by
    rank, such as ``table.costs``.  ValueError for any other shape."""
    costs = np.asarray(costs)
    if costs.shape != (N_FUNCTIONS,):
        raise ValueError(f"expected {N_FUNCTIONS} costs by rank, got shape {costs.shape}")
    stream.write("function,cost\n")
    texts = _function_texts()
    for start in range(0, N_FUNCTIONS, _BLOCK):
        block = slice(start, start + _BLOCK)
        stream.write("".join([
            f'"{text}",{cost}\n'
            for text, cost in zip(texts[block].tolist(), costs[block].tolist())
        ]))


def read_table_csv(stream) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a table CSV as two int64 arrays in file order: each
    function's rank and its cost.  Blank rows and rows whose first field
    starts with ``#`` are skipped, so a table may hold any subset of the
    functions.  A function field is looked up in the function-text table;
    one that is not there verbatim (spaces, say) is parsed.
    CircuitParseError for a bad header, a row without an integer cost, a
    cost outside int64, an unparsable function or a function that appears
    twice; InvalidFunction for one that is not a permutation."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["function", "cost"]:
        raise CircuitParseError("table CSV must start with a function,cost header")
    lookup = _function_ranks()
    ranks: list[int] = []
    costs: list[int] = []
    for row in reader:
        if not row or row[0].startswith("#"):
            continue
        try:
            cost = parse_int(row[1])
        except (IndexError, ValueError):
            raise CircuitParseError(f"bad table row: {row!r}") from None
        rank = lookup.get(row[0])
        if rank is None:
            rank = function_rank(parse_function(row[0]))
        ranks.append(rank)
        costs.append(cost)
    ranks = np.array(ranks, dtype=np.int64)
    try:
        costs = np.array(costs, dtype=np.int64)
    except OverflowError:
        bound = np.iinfo(np.int64)
        cost = next(c for c in costs if not bound.min <= c <= bound.max)
        raise CircuitParseError(f"table cost {cost} is outside the int64 range") from None
    repeated = np.flatnonzero(np.bincount(ranks, minlength=N_FUNCTIONS) > 1)
    if len(repeated):
        text = _function_texts()[repeated[0]]
        raise CircuitParseError(f"function {text} appears in more than one table row")
    return ranks, costs


def write_table_jsonl(table: SynthesisTable, stream) -> None:
    """One ``json.dumps(record, sort_keys=True)`` line per function in rank
    order, with record {function, cost, circuit}, written block by
    block from the function-text table, the table's witness paths and each
    gate's escaped text."""
    paths = table.witness_paths()
    gate_text = np.array([json.dumps(f"{g}\n")[1:-1] for g in GATES] + [""], dtype=object)
    texts = _function_texts()
    for start in range(0, N_FUNCTIONS, _BLOCK):
        block = slice(start, start + _BLOCK)
        circuits = gate_text[paths.gate_ids[block]].tolist()
        stream.write("".join([
            f'{{"circuit": "{"".join(circuit)}", "cost": {cost}, "function": "{text}"}}\n'
            for text, circuit, cost in zip(
                texts[block].tolist(), circuits, paths.cost[block].tolist()
            )
        ]))


# --------------------------------------------------------------------------
# Histograms and comparisons

def histogram_text(hist: CostHistogram) -> str:
    """Human-readable histogram block with the weighted average."""
    lines = [f"{'cost':>6} {'count':>8}"]
    for cost in sorted(hist.counts):
        lines.append(f"{cost:>6} {hist.counts[cost]:>8}")
    lines.append(f"functions: {hist.total}")
    lines.append(f"weighted average: {hist.weighted_average_text}")
    return "\n".join(lines) + "\n"


def comparison_text(report: ComparisonReport) -> str:
    """Side-by-side cost distributions: gate count, substituted, NCV optimum."""
    names = ("nct-gc", "nct-sub", "ncv-opt")
    # Each column counted over its distinct costs, so memory grows with the
    # number of functions, not with the largest cost.
    hists = [
        CostHistogram.from_costs(column, expect_total=None)
        for column in (report.nct_gc, report.nct_sub_cost, report.ncv_opt_cost)
    ]
    lines = [f"{'cost':>6} " + " ".join(f"{n:>8}" for n in names)]
    for cost in sorted(set().union(*(h.counts for h in hists))):
        lines.append(f"{cost:>6} " + " ".join(f"{h.counts.get(cost, 0):>8}" for h in hists))
    lines.append(f"{'WA':>6} " + " ".join(f"{h.weighted_average_text:>8}" for h in hists))
    return "\n".join(lines) + "\n"


def write_comparison_csv(report: ComparisonReport, stream) -> None:
    """One row per function in rank order, its text and the report's five
    cost columns, written block by block like ``write_table_csv``; then the
    report's summary lines."""
    stream.write("function,nct_gc,nct_sub_cost,nct_sub_min,nct_sub_max,ncv_opt_cost\n")
    texts = _function_texts()
    columns = (report.nct_gc, report.nct_sub_cost, report.nct_sub_min,
               report.nct_sub_max, report.ncv_opt_cost)
    for start in range(0, N_FUNCTIONS, _BLOCK):
        block = slice(start, start + _BLOCK)
        stream.write("".join([
            f'"{text}",{gc},{sub},{sub_min},{sub_max},{ncv}\n'
            for text, gc, sub, sub_min, sub_max, ncv in zip(
                texts[block].tolist(), *(column[block].tolist() for column in columns)
            )
        ]))
    for line in report.summary_lines():
        stream.write(line + "\n")
