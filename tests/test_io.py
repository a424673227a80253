"""Serialization round trips for circuits, functions, tables, and reports."""

import csv
import hashlib
import io as stdio
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ncvsynth as nv
from ncvsynth import CircuitParseError, InvalidFunction, cli
from ncvsynth import io as nio
from ncvsynth.analysis import render_4dp

from helpers import random_legal_circuit, read_table_jsonl, table_csv_text
from test_search import WINDOW_TABLES


def test_circuit_text_example():
    text = "# toffoli realization\nV b c\nCNOT a b\nV+ b c\nCNOT a b\nV a c\n"
    circuit = nio.parse_circuit(text)
    assert len(circuit) == 5 and circuit.library == "NCV"
    assert nio.format_circuit(circuit) == text.split("\n", 1)[1]


@pytest.mark.parametrize("seed", range(4))
def test_circuit_roundtrip_random(seed):
    rng = np.random.default_rng(seed)
    circuit = random_legal_circuit(rng, int(rng.integers(0, 16)))
    assert nio.parse_circuit(nio.format_circuit(circuit)) == circuit


def test_parse_circuit_infers_library():
    assert nio.parse_circuit("TOF a b c\n").library == "NCT"
    assert nio.parse_circuit("NOT a\n").library == "NCV"
    assert nio.parse_circuit("", library="NCT").library == "NCT"


@pytest.mark.parametrize(
    "bad",
    ["SWAP a b", "NOT", "CNOT a", "V a a", "NOT d", "TOF a b", "CNOT a b c"],
)
def test_parse_gate_errors(bad):
    with pytest.raises(CircuitParseError):
        nio.parse_gate(bad)


def test_parse_circuit_mixed_library_error():
    with pytest.raises(CircuitParseError):
        nio.parse_circuit("TOF a b c\nV a b\n")


@given(st.permutations(range(8)))
def test_function_roundtrip(perm):
    text = nio.format_function(tuple(perm))
    assert nio.parse_function(text) == tuple(perm)


def test_parse_function_errors():
    with pytest.raises(CircuitParseError):
        nio.parse_function("1,2,three")
    with pytest.raises(InvalidFunction):
        nio.parse_function("0,0,1,2,3,4,5,6")


def test_table_csv_roundtrip():
    costs = np.arange(nv.N_FUNCTIONS, dtype=np.int64) % 23 - 3
    text = table_csv_text(costs)
    assert text.startswith("function,cost\n")
    ranks, read = nio.read_table_csv(stdio.StringIO(text))
    assert ranks.dtype == read.dtype == np.int64
    assert np.array_equal(ranks, np.arange(nv.N_FUNCTIONS))
    assert np.array_equal(read, costs)


def test_table_csv_reads_rows_in_file_order_and_partial_tables():
    text = 'function,cost\n"7,6,5,4,3,2,1,0",4\n# a comment\n"0,1,2,3,4,5,6,7",-2\n'
    ranks, costs = nio.read_table_csv(stdio.StringIO(text))
    assert ranks.tolist() == [nv.N_FUNCTIONS - 1, 0] and costs.tolist() == [4, -2]
    ranks, costs = nio.read_table_csv(stdio.StringIO("function,cost\n"))
    assert (ranks.tolist(), costs.tolist()) == ([], [])


@pytest.mark.parametrize("cost", [2**63, -(2**63) - 1, 10**30])
def test_table_csv_of_a_cost_outside_int64_is_rejected(cost):
    text = f'function,cost\n"0,1,2,3,4,5,6,7",0\n"1,0,2,3,4,5,6,7",{cost}\n'
    with pytest.raises(CircuitParseError, match=f"{cost} is outside the int64 range"):
        nio.read_table_csv(stdio.StringIO(text))


def test_table_csv_of_a_cost_view_reads_its_cost_array(ncv012_full):
    """A table's ``costs`` is its witness paths' cost array, written with
    the bytes of that array."""
    expected = table_csv_text(ncv012_full.witness_paths().cost)
    assert table_csv_text(ncv012_full.costs) == expected


def test_table_csv_of_a_cost_array_needs_every_function():
    with pytest.raises(ValueError):
        table_csv_text(np.zeros(nv.N_FUNCTIONS - 1, dtype=np.int64))
    with pytest.raises(ValueError):
        table_csv_text({tuple(range(8)): 0})


def test_table_csv_of_a_repeated_function_is_rejected():
    text = 'function,cost\n"0,1,2,3,4,5,6,7",0\n"1,0,2,3,4,5,6,7",1\n" 0,1,2,3,4,5,6,7",3\n'
    with pytest.raises(CircuitParseError, match="0,1,2,3,4,5,6,7"):
        nio.read_table_csv(stdio.StringIO(text))


def test_table_csv_bad_header():
    with pytest.raises(CircuitParseError):
        nio.read_table_csv(stdio.StringIO("cost,function\n"))


def test_jsonl_roundtrip(ncv111_full):
    buf = stdio.StringIO()
    nio.write_table_jsonl(ncv111_full, buf)
    buf.seek(0)
    records = read_table_jsonl(buf)
    assert len(records) == nv.N_FUNCTIONS
    func = (0, 1, 2, 3, 4, 5, 7, 6)
    cost, circuit = records[func]
    assert cost == 5 and nv.realized_function(circuit) == func
    assert all(
        records[f] == (ncv111_full.cost_of(f), ncv111_full.witness(f))
        for f in ncv111_full.functions()
    )


# SHA-256 of outputs that depend on which optimal witness each table holds.
# A change that moves witnesses must update these and say why.
NCT_GC_JSONL_SHA256 = "c41a08f48827ee160d62bf0286a3f3889672b573fa1f702ed4a70e992cef1e93"
COMPARISON_CSV_SHA256 = {
    "comparison_111": "c849da58d8df77cc7d8be7179819bd1cf205539d68c6132be7988e60eb1721af",
    "comparison_012": "e1c481507608064b653419da47bedbacfad1412e9053a13e1ced0dfbc02edd60",
    "comparison_155": "f6719b973686be8d04535fc3864c97309d6640e5c2da614082acbfc2f5ea0c89",
    "comparison_1_300_300": "3c07677939b80d8d75c14c668f9fc24f60ddc308d94bdc5915d6ee327d15fdde",
}
# SHA-256 of every witness's ``str``, one line per function in rank order.
WITNESS_TEXT_SHA256 = {
    "ncv111_path": "e3fd68b1d858d6f6d51f4774c20dc2064f8b85dd2b2288428351e27a70f82ab0",
    "nct_gc": "c4726f1c1647bc85624cdd21266c83d73a0cd009f65aeb5187da50f3287556d0",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_jsonl_digest_is_pinned(nct_gc):
    buf = stdio.StringIO()
    nio.write_table_jsonl(nct_gc, buf)
    assert _sha256(buf.getvalue()) == NCT_GC_JSONL_SHA256


@pytest.mark.parametrize("name", sorted(COMPARISON_CSV_SHA256))
def test_comparison_csv_digest_is_pinned(name, request):
    buf = stdio.StringIO()
    nio.write_comparison_csv(request.getfixturevalue(name), buf)
    assert _sha256(buf.getvalue()) == COMPARISON_CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(WITNESS_TEXT_SHA256))
def test_witness_text_digest_is_pinned(name, request):
    table = request.getfixturevalue(name)
    text = "\n".join(str(table.witness(f)) for f in table.functions())
    assert _sha256(text) == WITNESS_TEXT_SHA256[name]


#: SHA-256 of every witness digest pinned above and in ``WINDOW_TABLES``, by
#: the cache format whose files hold those witnesses.
PINNED_WITNESSES_OF_CACHE_FORMAT = {
    3: "714ee6fcb1c0e5d3d36bec247e3fae6e7072f9663b811168b01bc88edc2495e4",
}


def _pinned_witnesses():
    pins = {f"window {name}": pin[2] for name, pin in WINDOW_TABLES.items()}
    pins |= {f"text {name}": digest for name, digest in WITNESS_TEXT_SHA256.items()}
    pins["jsonl nct_gc"] = NCT_GC_JSONL_SHA256
    return _sha256(json.dumps(pins, sort_keys=True))


def test_cache_format_is_raised_with_the_pinned_witnesses():
    """A cache file stores witnesses, so a change to a pinned witness must
    raise ``cli.CACHE_FORMAT``: else an older file serves the old witnesses
    warm, and a warm run's bytes differ from a cold run's.  Record the new
    digest under the new format.  A pin added or removed with no witness
    changed is recorded under the same format."""
    assert PINNED_WITNESSES_OF_CACHE_FORMAT.get(cli.CACHE_FORMAT) == _pinned_witnesses()


def test_jsonl_matches_record_by_record_formatting(ncv111_path):
    """Block-wise writing gives json.dumps of every record, none dropped at
    a block boundary."""
    buf = stdio.StringIO()
    nio.write_table_jsonl(ncv111_path, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert len(lines) == nv.N_FUNCTIONS
    for func, line in zip(ncv111_path.functions(), lines):
        record = {
            "function": nio.format_function(func),
            "cost": ncv111_path.cost_of(func),
            "circuit": nio.format_circuit(ncv111_path.witness(func)),
        }
        assert line == json.dumps(record, sort_keys=True) + "\n"


def test_csv_writers_match_csv_writer_row_by_row(ncv111_path, comparison_111):
    """Block-wise writing gives the bytes csv.writer gives, none dropped at a
    block boundary."""
    expected = stdio.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["function", "cost"])
    for func in sorted(ncv111_path.functions()):
        writer.writerow([nio.format_function(func), ncv111_path.cost_of(func)])
    # synth-all --out writes the table's cost array
    assert table_csv_text(ncv111_path.costs) == expected.getvalue()

    expected = stdio.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(
        ["function", "nct_gc", "nct_sub_cost", "nct_sub_min", "nct_sub_max", "ncv_opt_cost"]
    )
    report = comparison_111
    columns = (report.nct_gc, report.nct_sub_cost, report.nct_sub_min,
               report.nct_sub_max, report.ncv_opt_cost)
    for func, *costs in zip(ncv111_path.functions(), *(c.tolist() for c in columns)):
        writer.writerow([nio.format_function(func), *costs])
    for line in comparison_111.summary_lines():
        expected.write(line + "\n")
    buf = stdio.StringIO()
    nio.write_comparison_csv(comparison_111, buf)
    assert buf.getvalue() == expected.getvalue()


def test_histogram_csv_and_text(ncv111_full):
    """The histogram text that ``synth-all`` and ``stats`` print."""
    hist = nv.histogram(ncv111_full)
    text = nio.histogram_text(hist)
    assert "weighted average: 10.0319" in text
    assert "functions: 40320" in text


def test_comparison_csv(comparison_012):
    buf = stdio.StringIO()
    nio.write_comparison_csv(comparison_012, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "function,nct_gc,nct_sub_cost,nct_sub_min,nct_sub_max,ncv_opt_cost"
    assert len([l for l in lines if not l.startswith("#")]) == nv.N_FUNCTIONS + 1
    assert any(l.startswith("#summary") for l in lines)


def test_comparison_text_layout(comparison_111):
    text = nio.comparison_text(comparison_111)
    lines = text.splitlines()
    assert lines[0].split() == ["cost", "nct-gc", "nct-sub", "ncv-opt"]
    assert lines[1].split() == ["0", "1", "1", "1"]
    assert lines[-1].startswith("    WA")
    assert "5.8655" in lines[-1] and "10.0319" in lines[-1]


def test_comparison_text_counts_match_a_per_function_count(comparison_012):
    """The bincount columns give the per-function counts and the exact
    weighted averages, none missed at either end of the cost range."""
    report = comparison_012
    columns = [c.tolist() for c in (report.nct_gc, report.nct_sub_cost, report.ncv_opt_cost)]
    counts = [Counter(column) for column in columns]
    expected = [f"{'cost':>6} {'nct-gc':>8} {'nct-sub':>8} {'ncv-opt':>8}"]
    for cost in sorted(set().union(*counts)):
        expected.append(f"{cost:>6} " + " ".join(f"{c[cost]:>8}" for c in counts))
    was = [render_4dp(Fraction(sum(column), len(column))) for column in columns]
    expected.append(f"{'WA':>6} " + " ".join(f"{w:>8}" for w in was))
    assert nio.comparison_text(report) == "\n".join(expected) + "\n"
