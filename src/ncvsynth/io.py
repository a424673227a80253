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
(and optionally JSONL with one {function, cost, circuit} record per line);
rows are sorted by function so identical tables serialize byte-for-byte
identically.
"""

from __future__ import annotations

import csv
import functools
import io as _stdio
import json
from typing import Mapping, Sequence

import numpy as np

from .analysis import ComparisonReport, CostHistogram
from .errors import CircuitParseError
from .model import Circuit, Gate, LINE_NAMES, N_ROWS, rank_tables, validate_permutation
from .search import SynthesisTable

_ARITY = {"NOT": 0, "CNOT": 1, "V": 1, "V+": 1, "TOF": 2}


@functools.lru_cache(maxsize=256)
def parse_gate(text: str) -> Gate:
    """The gate a line of circuit text names; each distinct text is parsed
    once (gates are immutable, so callers share the instance)."""
    parts = text.split()
    kind = parts[0].upper()
    if kind not in _ARITY:
        raise CircuitParseError(f"unknown gate kind {parts[0]!r}")
    if len(parts) != _ARITY[kind] + 2:
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


#: A function as a CSV field, as ``csv.writer`` writes it: the outputs are
#: joined by commas, so the field is quoted.
_FUNCTION_FIELD = '"' + ",".join(["%s"] * N_ROWS) + '"'


def parse_function(text: str) -> tuple[int, ...]:
    try:
        values = [int(v) for v in text.strip().split(",")]
    except ValueError:
        raise CircuitParseError(f"function must be 8 integers: {text!r}") from None
    return validate_permutation(values)


# --------------------------------------------------------------------------
# Tables

#: Rows per formatted block of the table and report writers: big enough to
#: amortize per-call work, small enough that no block's Python strings add
#: to peak memory.
_BLOCK = 4096

#: A (function, cost) CSV row as ``csv.writer`` writes it.
_TABLE_ROW = _FUNCTION_FIELD + ",%s\n"


def write_table_csv(costs: Mapping, stream) -> None:
    """Header ``function,cost``, then one row per function in sorted order."""
    write_table_rows(sorted(costs.items()), stream)


def write_table_rows(rows: Sequence[tuple[tuple[int, ...], int]], stream) -> None:
    """Header ``function,cost``, then the (function, cost) rows in the order
    given, written block by block: ``write_table_csv`` of a table's costs
    when given ``list(table.items())``, which is already sorted."""
    stream.write("function,cost\n")
    for start in range(0, len(rows), _BLOCK):
        stream.write("".join([
            _TABLE_ROW % (*func, cost) for func, cost in rows[start:start + _BLOCK]
        ]))


def table_csv_text(costs: Mapping) -> str:
    buf = _stdio.StringIO()
    write_table_csv(costs, buf)
    return buf.getvalue()


def read_table_csv(stream) -> dict[tuple[int, ...], int]:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["function", "cost"]:
        raise CircuitParseError("table CSV must start with a function,cost header")
    costs: dict[tuple[int, ...], int] = {}
    for row in reader:
        if not row or row[0].startswith("#"):
            continue
        try:
            costs[parse_function(row[0])] = int(row[1])
        except (IndexError, ValueError):
            raise CircuitParseError(f"bad table row: {row!r}") from None
    return costs


def write_table_jsonl(table: SynthesisTable, stream) -> None:
    """One ``json.dumps(record, sort_keys=True)`` line per function in rank
    order, with record {function, cost, circuit}, written block by
    block from the table's witness paths and each gate's escaped text."""
    paths = table.witness_paths()
    gate_text = np.array(
        [json.dumps(f"{g}\n")[1:-1] for g in table.gate_list] + [""], dtype=object
    )
    outputs = rank_tables().outputs
    for start in range(0, len(outputs), _BLOCK):
        block = slice(start, start + _BLOCK)
        funcs = outputs[block].tolist()
        circuits = gate_text[paths.gate_ids[block]].tolist()
        costs = paths.cost[block].tolist()
        stream.write("".join([
            f'{{"circuit": "{"".join(circuit)}", "cost": {cost}, '
            f'"function": "{format_function(func)}"}}\n'
            for func, circuit, cost in zip(funcs, circuits, costs)
        ]))


def read_table_jsonl(stream) -> dict[tuple[int, ...], tuple[int, Circuit]]:
    out: dict[tuple[int, ...], tuple[int, Circuit]] = {}
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            func = parse_function(record["function"])
            out[func] = (int(record["cost"]), parse_circuit(record["circuit"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise CircuitParseError(f"bad JSONL record: {exc}") from None
    return out


# --------------------------------------------------------------------------
# Histograms and comparisons

def write_histogram_csv(hist: CostHistogram, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["cost", "count"])
    for cost in sorted(hist.counts):
        writer.writerow([cost, hist.counts[cost]])


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
    from fractions import Fraction

    from .analysis import render_4dp

    columns = {"nct-gc": {}, "nct-sub": {}, "ncv-opt": {}}
    for _, gc, sub, _, _, ncv in report.rows:
        for name, value in (("nct-gc", gc), ("nct-sub", sub), ("ncv-opt", ncv)):
            columns[name][value] = columns[name].get(value, 0) + 1
    total = len(report.rows)
    names = list(columns)
    lines = [f"{'cost':>6} " + " ".join(f"{n:>8}" for n in names)]
    top = max(max(c) for c in columns.values())
    for cost in range(top + 1):
        counts = [columns[n].get(cost, 0) for n in names]
        if any(counts):
            lines.append(f"{cost:>6} " + " ".join(f"{c:>8}" for c in counts))
    was = [
        render_4dp(Fraction(sum(c * n for c, n in columns[name].items()), total))
        for name in names
    ]
    lines.append(f"{'WA':>6} " + " ".join(f"{w:>8}" for w in was))
    return "\n".join(lines) + "\n"


_COMPARISON_ROW = _FUNCTION_FIELD + ",%s,%s,%s,%s,%s\n"


def write_comparison_csv(report: ComparisonReport, stream) -> None:
    """The report's rows as CSV, written block by block like
    ``write_table_csv``, then its summary lines."""
    stream.write("function,nct_gc,nct_sub_cost,nct_sub_min,nct_sub_max,ncv_opt_cost\n")
    rows = report.rows
    for start in range(0, len(rows), _BLOCK):
        stream.write("".join([
            _COMPARISON_ROW % (*func, gc, sub, sub_min, sub_max, ncv)
            for func, gc, sub, sub_min, sub_max, ncv in rows[start:start + _BLOCK]
        ]))
    for line in report.summary_lines():
        stream.write(line + "\n")
