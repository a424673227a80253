"""Command line behavior, exit codes, and cache correctness."""

import contextlib
import io as stdio
import json
import os
import subprocess
import sys
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ncvsynth as nv
from ncvsynth import cli, nct, search
from ncvsynth import io as nio
from ncvsynth.cli import main
from ncvsynth.model import GATES, MAX_WEIGHT
from ncvsynth.nct import toffoli_decomposition

from helpers import read_table_jsonl

TOF_TEXT = nio.format_circuit(nv.Circuit(toffoli_decomposition(0, 1, 2)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_toffoli(capsys):
    code, out, _ = run(
        capsys, "synth", "--metric", "ncv-111", "--topology", "full",
        "--function", "0,1,2,3,4,5,7,6",
    )
    assert code == 0
    assert "optimal cost: 5" in out
    circuit = nio.parse_circuit(out.split("optimal cost: 5\n", 1)[1])
    assert nv.check_realizes(circuit, (0, 1, 2, 3, 4, 5, 7, 6))


def test_synth_identity(capsys):
    code, out, _ = run(capsys, "synth", "--function", "0,1,2,3,4,5,6,7")
    assert code == 0 and "optimal cost: 0" in out


def test_synth_non_permutation_exits_3(capsys):
    code, _, err = run(capsys, "synth", "--function", "0,0,1,2,3,4,5,6")
    assert code == 3 and "permutation" in err


def test_bad_metric_exits_2(capsys):
    code, _, _ = run(capsys, "synth", "--metric", "ncv-9", "--function", "0,1,2,3,4,5,6,7")
    assert code == 2


def test_metric_weight_above_the_cap_exits_2(capsys):
    code, _, err = run(
        capsys, "synth", "--function", "1,0,3,2,5,4,7,6",
        "--metric", "custom:99999999999999999999,1,1",
    )
    assert code == 2 and "cap" in err and "Traceback" not in err


def test_synth_state_budget_counts_only_the_target(capsys):
    code, _, err = run(capsys, "synth", "--function", "0,1,2,3,4,5,7,6", "--max-states", "0")
    assert code == 4
    assert err == "error: state ceiling 0 reached with 1 function(s) unsettled\n"


def test_synth_cost_budget_below_and_at_a_deep_optimum(capsys):
    """The Toffoli costs 9 on the path: one below, the target search exits
    4; at 9 it prints the unbudgeted circuit."""
    args = ("synth", "--function", "0,1,2,3,4,5,7,6", "--topology", "path")
    code, out, _ = run(capsys, *args)
    assert code == 0 and "optimal cost: 9" in out
    assert run(capsys, *args, "--max-cost", "9") == (0, out, "")
    assert run(capsys, *args, "--max-cost", "8") == (
        4, "", "error: cost ceiling 8 reached with 1 function(s) unsettled\n"
    )


def test_unknown_command_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("flag", ["--no-prune-vplus", "--prune-inverse"])
@pytest.mark.parametrize(
    "command", [["synth", "--function", "0,1,2,3,4,5,6,7"], ["synth-all"]]
)
def test_retired_reduction_flags_exit_2(capsys, command, flag):
    code, _, err = run(capsys, *command, flag)
    assert code == 2
    assert f"unrecognized arguments: {flag}\n" in err and "Traceback" not in err


def test_custom_metric_matches_preset(capsys):
    code, out, _ = run(
        capsys, "synth", "--metric", "custom:1,5,5", "--function", "0,1,2,3,4,5,7,6"
    )
    assert code == 0 and "optimal cost: 25" in out


def test_verify_roundtrip(tmp_path, capsys):
    circuit_file = tmp_path / "tof.txt"
    circuit_file.write_text(TOF_TEXT)
    code, out, _ = run(
        capsys, "verify", "--circuit", str(circuit_file), "--function", "0,1,2,3,4,5,7,6"
    )
    assert code == 0 and out.startswith("ok:")


@pytest.mark.parametrize("tol, expected", [
    ([], "ok: circuit realizes 0,1,2,3,4,5,7,6 (tol 1e-09)\n"),
    (["--tol", "0"], "ok: circuit realizes 0,1,2,3,4,5,7,6 (tol 0)\n"),
    (["--tol", ".5"], "ok: circuit realizes 0,1,2,3,4,5,7,6 (tol 0.5)\n"),
    (["--tol", " +1e-9 "], "ok: circuit realizes 0,1,2,3,4,5,7,6 (tol 1e-09)\n"),
])
def test_verify_tol_default_and_zero(tmp_path, capsys, tol, expected):
    circuit_file = tmp_path / "tof.txt"
    circuit_file.write_text(TOF_TEXT)
    argv = ["verify", "--circuit", str(circuit_file), *tol, "--function"]
    assert run(capsys, *argv, "0,1,2,3,4,5,7,6") == (0, expected, "")
    code, out, err = run(capsys, *argv, "0,1,2,3,4,5,6,7")
    assert (code, out) == (1, "") and err.startswith("FAIL: unitary entry (6,6) is 0+0j")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "x", "1_0", "٣", "３", "1e_3"])
def test_verify_tol_that_is_not_finite_and_non_negative_exits_2(tmp_path, capsys, tol):
    """nan ended in a traceback, -1 failed every circuit and inf passed any;
    ``float`` read 1_0 as 10 and the Arabic-Indic and fullwidth 3 as 3."""
    circuit_file = tmp_path / "tof.txt"
    circuit_file.write_text(TOF_TEXT)
    code, out, err = run(capsys, "verify", "--circuit", str(circuit_file),
                         "--function", "0,1,2,3,4,5,6,7", "--tol", tol)
    assert (code, out) == (2, "") and "--tol" in err and "Traceback" not in err


def test_verify_reads_a_circuit_that_begins_with_a_byte_order_mark(tmp_path, capsys):
    """It exited 2 with "unknown gate kind '\\ufeffV'"."""
    circuit_file = tmp_path / "tof.txt"
    circuit_file.write_text(TOF_TEXT, encoding="utf-8-sig")
    assert run(capsys, "verify", "--circuit", str(circuit_file), "--function",
               "0,1,2,3,4,5,7,6") == (0, "ok: circuit realizes 0,1,2,3,4,5,7,6 (tol 1e-09)\n", "")


def test_verify_failure_exits_1(tmp_path, capsys):
    circuit_file = tmp_path / "not.txt"
    circuit_file.write_text("NOT a\n")
    code, _, err = run(
        capsys, "verify", "--circuit", str(circuit_file), "--function", "0,1,2,3,4,5,6,7"
    )
    assert code == 1 and "FAIL" in err


def test_verify_empty_circuit_is_identity(tmp_path, capsys):
    circuit_file = tmp_path / "empty.txt"
    circuit_file.write_text("# nothing here\n")
    code, _, _ = run(
        capsys, "verify", "--circuit", str(circuit_file), "--function", "0,1,2,3,4,5,6,7"
    )
    assert code == 0


def test_verify_malformed_exits_2(tmp_path, capsys):
    circuit_file = tmp_path / "bad.txt"
    circuit_file.write_text("HADAMARD a\n")
    code, _, _ = run(
        capsys, "verify", "--circuit", str(circuit_file), "--function", "0,1,2,3,4,5,6,7"
    )
    assert code == 2


def test_verify_missing_file_exits_5(tmp_path, capsys):
    code, _, _ = run(
        capsys, "verify", "--circuit", str(tmp_path / "nope.txt"),
        "--function", "0,1,2,3,4,5,6,7",
    )
    assert code == 5


def test_synth_all_budget_exits_4(tmp_path, capsys):
    code, _, err = run(
        capsys, "synth-all", "--max-cost", "3",
        "--cache-dir", str(tmp_path / "cache"), "--no-cache",
    )
    assert code == 4 and "ceiling" in err


@pytest.mark.parametrize(
    "budget, expected",
    [(["--max-cost", "3"], 4), (["--max-states", "1000"], 4), (["--max-cost", "99"], 0)],
)
def test_budget_acts_alike_cold_and_warm(tmp_path, capsys, ncv111_full, budget, expected):
    """A run with a budget reads no cache file: a complete cached table must
    not lift a budget that is too small, nor change the output of one that
    is large enough."""
    cache, out = tmp_path / "cache", tmp_path / "table.csv"
    argv = ["synth-all", "--metric", "ncv-111", "--cache-dir", str(cache),
            "--out", str(out), *budget]
    outputs = []
    for _ in ("cold", "warm"):
        out.unlink(missing_ok=True)
        code, stdout, err = run(capsys, *argv)
        outputs.append((code, stdout, err, out.read_bytes() if out.exists() else None))
        path, spec = cli.cache_entry(cache, nv.NCV_111, nv.FULL_TOPOLOGY, nv.SearchOptions())
        cli.write_cached_table(path, spec, ncv111_full)
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == expected


def test_stats_roundtrip(tmp_path, capsys, ncv111_full):
    table_file = tmp_path / "t.csv"
    with table_file.open("w", newline="") as fh:
        nio.write_table_csv(ncv111_full.costs, fh)
    code, out, _ = run(capsys, "stats", str(table_file))
    assert code == 0 and "weighted average: 10.0319" in out


def test_stats_reads_a_table_that_begins_with_a_byte_order_mark(tmp_path, capsys, ncv111_full):
    """It exited 2 with "table CSV must start with a function,cost header"."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    with plain.open("w", newline="") as fh:
        nio.write_table_csv(ncv111_full.costs, fh)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = run(capsys, "stats", str(plain))
    assert expected[0] == 0 and run(capsys, "stats", str(marked)) == expected


def test_stats_missing_file_exits_5(tmp_path, capsys):
    assert run(capsys, "stats", str(tmp_path / "none.csv"))[0] == 5


def _stats(tmp_path, capsys, text):
    table_file = tmp_path / "t.csv"
    table_file.write_text("function,cost\n" + text)
    return run(capsys, "stats", str(table_file))


def test_stats_of_a_repeated_function_exits_2(tmp_path, capsys):
    code, out, err = _stats(tmp_path, capsys, '"0,1,2,3,4,5,6,7",0\n"0,1,2,3,4,5,6,7",3\n')
    assert (code, out) == (2, "")
    assert "0,1,2,3,4,5,6,7" in err


def test_stats_of_a_non_permutation_exits_3(tmp_path, capsys):
    code, out, _ = _stats(tmp_path, capsys, '"0,1,2,3,4,5,6,7",0\n"0,0,2,3,4,5,6,7",1\n')
    assert (code, out) == (3, "")


@pytest.mark.parametrize("row", ['"0,1,2,3,4,5,6,7",x', '"0,1,2,3,4,5,6,7",1.5',
                                 '"0,1,2,3,4,5,6,7"', '"1,0,2,3,4,5,6,7",'])
def test_stats_of_a_bad_cost_exits_2(tmp_path, capsys, row):
    code, out, err = _stats(tmp_path, capsys, row + "\n")
    assert (code, out) == (2, "") and "bad table row" in err


@pytest.mark.parametrize("cost", ["1_0", "\u0663", "\uff13", "3 3"])
def test_stats_reads_a_cost_of_ascii_digits_only(tmp_path, capsys, cost):
    """``int`` reads ``1_0`` as 10 and the Arabic-Indic or full-width 3 as
    3; a cost is an optional sign and ASCII digits."""
    code, out, err = _stats(tmp_path, capsys, f'"0,1,2,3,4,5,6,7",{cost}\n')
    assert (code, out) == (2, "") and "bad table row" in err


def test_stats_reads_a_signed_cost_with_spaces(tmp_path, capsys):
    code, out, _ = _stats(tmp_path, capsys, '"0,1,2,3,4,5,6,7", +4 \n')
    assert code == 0 and "     4        1\nfunctions: 1\n" in out


@pytest.mark.parametrize("argv, message", [
    (["--function", "\u0660,1,2,3,4,5,7,6"], "function must be 8 integers"),
    (["--function", "0,1,2,3,4,5,7,6_"], "function must be 8 integers"),
    (["--metric", "custom:1_0,1,1"], "bad custom metric weights"),
    (["--metric", "custom:1,\u0661,1"], "bad custom metric weights"),
    (["--max-cost", "-1"], "argument --max-cost: expected an integer >= 0, got '-1'"),
    (["--max-states", "-1"], "argument --max-states: expected an integer >= 0, got '-1'"),
    (["--max-states", "1_0"], "argument --max-states: expected an integer >= 0, got '1_0'"),
])
def test_synth_reads_integers_of_ascii_digits_only(capsys, argv, message):
    """Each ran before: as the function 0,1,..., as weight 10 or 1, or as a
    search that then exited 4 for a negative budget."""
    args = {"--function": "0,1,2,3,4,5,7,6", **dict(zip(argv[::2], argv[1::2]))}
    code, out, err = run(capsys, "synth", *(x for item in args.items() for x in item))
    assert (code, out) == (2, "") and message in err and "Traceback" not in err


def test_synth_reads_signs_and_spaces_around_integers(capsys):
    plain = run(capsys, "synth", "--function", "0,1,2,3,4,5,7,6", "--metric", "custom:1,1,1")
    spaced = run(capsys, "synth", "--function", "+0, 1 ,2,3,4,5,7,6", "--metric",
                 "custom: 1,+1,1 ", "--max-cost", "+5", "--max-states", " 10000 ")
    assert plain == spaced and plain[0] == 0


def test_stats_skips_comment_and_blank_rows(tmp_path, capsys):
    text = '# a comment\n"0,1,2,3,4,5,6,7",0\n\n#"1,0,2,3,4,5,6,7",1\n"1,0,2,3,4,5,6,7",1\n'
    code, out, _ = _stats(tmp_path, capsys, text)
    assert code == 0
    assert out == "  cost    count\n     0        1\n     1        1\n" \
                  "functions: 2\nweighted average: 0.5000\n"


def test_stats_reads_a_function_field_with_spaces(tmp_path, capsys):
    code, out, _ = _stats(tmp_path, capsys, '" 0, 1,2,3,4,5,6,7",2\n')
    assert code == 0 and "     2        1\nfunctions: 1\n" in out


def test_stats_of_a_negative_cost_prints_its_row(tmp_path, capsys):
    text = '"0,1,2,3,4,5,6,7",-3\n"1,0,2,3,4,5,6,7",5\n"1,0,2,3,4,5,7,6",5\n'
    assert _stats(tmp_path, capsys, text) == (
        0, "  cost    count\n    -3        1\n     5        2\n"
           "functions: 3\nweighted average: 2.3333\n", "")


def test_stats_of_a_cost_outside_int64_exits_2(tmp_path, capsys):
    """It exited 0 with a weighted average rounded through a float."""
    text = f'"0,1,2,3,4,5,6,7",-3\n"1,0,2,3,4,5,6,7",{10**29}\n'
    code, out, err = _stats(tmp_path, capsys, text)
    assert (code, out) == (2, "") and "outside the int64 range" in err


def test_stats_weighted_average_is_exact_near_2_to_the_62(tmp_path, capsys):
    text = f'"0,1,2,3,4,5,6,7",{2**62}\n"1,0,2,3,4,5,6,7",{2**62 + 1}\n'
    code, out, _ = _stats(tmp_path, capsys, text)
    assert code == 0 and out.endswith("weighted average: 4611686018427387904.5000\n")


def test_synth_all_cache_matches_fresh_run(tmp_path, capsys, warm_cache_dir):
    """A cached table must give the output of a fresh computation bit-for-bit."""
    cached_out = tmp_path / "cached.csv"
    code, out, _ = run(
        capsys, "synth-all", "--metric", "ncv-111",
        "--cache-dir", str(warm_cache_dir), "--out", str(cached_out),
    )
    assert code == 0 and "weighted average: 10.0319" in out

    fresh_out = tmp_path / "fresh.csv"
    code, _, _ = run(
        capsys, "synth-all", "--metric", "ncv-111", "--no-cache",
        "--cache-dir", str(warm_cache_dir), "--out", str(fresh_out),
    )
    assert code == 0
    assert cached_out.read_bytes() == fresh_out.read_bytes()


def _no_settle(*args, **kwargs):
    raise AssertionError("a warm run settled a table")


@pytest.mark.parametrize("metric, topology", [("ncv-012", "full"), ("ncv-111", "path")])
def test_synth_all_warm_run_matches_cold_run(tmp_path, capsys, monkeypatch, metric, topology):
    out, circuits = tmp_path / "table.csv", tmp_path / "circuits.jsonl"
    argv = [
        "synth-all", "--metric", metric, "--topology", topology,
        "--cache-dir", str(tmp_path / "cache"), "--out", str(out), "--circuits", str(circuits),
    ]
    outputs = []
    for _ in ("cold", "warm"):
        code, stdout, err = run(capsys, *argv)
        assert code == 0, err
        outputs.append((stdout, out.read_bytes(), circuits.read_bytes()))
        monkeypatch.setattr(search, "_run_search", _no_settle)
    assert outputs[0] == outputs[1]


def test_compare_warm_run_matches_cold_run(tmp_path, capsys, monkeypatch):
    out = tmp_path / "compare.csv"
    argv = ["compare", "--metric", "ncv-012", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    outputs = []
    for _ in ("cold", "warm"):
        code, stdout, err = run(capsys, *argv)
        assert code == 0, err
        outputs.append((stdout, out.read_bytes()))
        # Every settle, NCV or NCT, runs the engine.
        monkeypatch.setattr(search, "_run_search", _no_settle)
    assert outputs[0] == outputs[1]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        "nct-gate-count_full.npz", "ncv-012_full.npz",
    ]


def _seed_ncv_tables(cache, *tables):
    """Write complete NCV tables to ``cache`` through the CLI's writer."""
    for table in tables:
        path, spec = cli.cache_entry(cache, table.metric, table.topology, nv.SearchOptions())
        cli.write_cached_table(path, spec, table)


@pytest.fixture
def nct_settles(monkeypatch):
    """Log the CLI's NCT settles as (mode, metric slug) pairs."""
    calls = []
    settle_all_nct = nct.settle_all_nct

    def logged(mode, metric=None, *args, **kwargs):
        calls.append((mode, metric and metric.slug))
        return settle_all_nct(mode, metric, *args, **kwargs)

    monkeypatch.setattr(nct, "settle_all_nct", logged)
    return calls


def test_compare_of_a_second_metric_reuses_the_gate_count_file(
    tmp_path, capsys, ncv012_full, ncv111_full, nct_settles
):
    cache = tmp_path / "cache"
    _seed_ncv_tables(cache, ncv012_full, ncv111_full)
    argv = ["compare", "--cache-dir", str(cache), "--metric"]
    assert run(capsys, *argv, "ncv-012")[0] == 0
    assert nct_settles == [("gate-count", None)]
    del nct_settles[:]
    second = run(capsys, *argv, "ncv-111")
    assert nct_settles == []
    assert second == run(capsys, *argv, "ncv-111", "--no-cache")
    assert len(list(cache.iterdir())) == 3


#: The gate-count file's name and spec, as every release since cache format
#: 3 writes them: a cache directory written by one serves the other warm.
NCT_GATE_COUNT_FILE = "nct-gate-count_full.npz"
NCT_GATE_COUNT_SPEC = (
    '{"format": 3, "library": "NCT", "weights": [["NOT a", 1, 0], ["NOT b", 1, 0], '
    '["NOT c", 1, 0], ["CNOT a b", 1, 0], ["CNOT a c", 1, 0], ["CNOT b a", 1, 0], '
    '["CNOT b c", 1, 0], ["CNOT c a", 1, 0], ["CNOT c b", 1, 0], ["TOF a b c", 1, 0], '
    '["TOF a c b", 1, 0], ["TOF b c a", 1, 0]], "topology": [[0, 1], [0, 2], [1, 2]], '
    '"no_repeat_placement": true, "settle_relabelings": true}'
)


def test_gate_count_file_keeps_its_name_and_spec(tmp_path):
    path, spec = cli.cache_entry(tmp_path, None, nv.FULL_TOPOLOGY, nv.SearchOptions())
    assert (path, spec) == (tmp_path / NCT_GATE_COUNT_FILE, NCT_GATE_COUNT_SPEC)


@pytest.mark.parametrize("holder", ["ncv-111", "gate-count without reductions"])
def test_nct_cache_file_of_another_spec_is_a_miss(
    tmp_path, capsys, ncv111_full, nct_settles, holder
):
    """The gate-count file holding another table, with that table's spec,
    is recomputed."""
    cache = tmp_path / "cache"
    _seed_ncv_tables(cache, ncv111_full)
    path, spec = cli.cache_entry(cache, None, nv.FULL_TOPOLOGY, nv.SearchOptions())
    if holder == "ncv-111":
        other, metric, options = ncv111_full, nv.NCV_111, nv.SearchOptions()
    else:
        options = nv.SearchOptions(no_repeat_placement=False, settle_relabelings=False)
        other, metric = nv.settle_all_nct(options=options), None
    _, other_spec = cli.cache_entry(cache, metric, nv.FULL_TOPOLOGY, options)
    cli.write_cached_table(path, other_spec, other)
    assert other_spec != spec
    assert cli.read_cached_table(path, spec, None, nv.FULL_TOPOLOGY) is None

    argv = ["compare", "--metric", "ncv-111", "--cache-dir", str(cache)]
    del nct_settles[:]
    assert run(capsys, *argv) == run(capsys, *argv, "--no-cache")
    assert ("gate-count", None) in nct_settles
    assert cli.read_cached_table(path, spec, None, nv.FULL_TOPOLOGY) is not None


def test_compare_without_cache_writes_no_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    code, _, err = run(capsys, "compare", "--metric", "ncv-012", "--cache-dir", str(cache),
                       "--no-cache")
    assert code == 0, err
    assert list(cache.iterdir()) == []


def _write_changed(path, spec, table, name, change):
    """Store ``table`` at ``path`` with ``change`` applied to its ``name``
    array (an array left out when ``change`` gives None)."""
    paths = table.witness_paths()
    arrays = {"cost": paths.cost, "secondary": table.secondary_array(),
              "gate_ids": paths.gate_ids, "lengths": paths.lengths}
    arrays[name] = change(arrays[name])
    if arrays[name] is None:
        del arrays[name]
    np.savez(path, spec=np.array(spec), **arrays)


def _check_changed_file_is_recomputed(tmp_path, capsys, ncv012_full, command, nct_mode,
                                      name, change):
    """``command`` on a cache whose ncv-012 file (with ``nct_mode``, the NCT
    file of that mode) has ``change`` applied to its ``name`` array: the
    file is a miss, the output is the cold run's, and the file is rewritten
    with the cold run's arrays."""
    metric = None if nct_mode else nv.NCV_012
    cache = tmp_path / "cache"
    _seed_ncv_tables(cache, ncv012_full)
    argv = [command, "--metric", "ncv-012", "--cache-dir", str(cache)]
    expected = run(capsys, *argv)
    assert expected[0] == 0, expected[2]
    path, spec = cli.cache_entry(cache, metric, nv.FULL_TOPOLOGY, nv.SearchOptions())
    table = cli.read_cached_table(path, spec, metric, nv.FULL_TOPOLOGY)
    _write_changed(path, spec, table, name, change)
    assert cli.read_cached_table(path, spec, metric, nv.FULL_TOPOLOGY) is None

    assert run(capsys, *argv) == expected
    rewritten = cli.read_cached_table(path, spec, metric, nv.FULL_TOPOLOGY)
    assert all(map(np.array_equal, rewritten.witness_paths(), table.witness_paths()))
    assert np.array_equal(rewritten.secondary_array(), table.secondary_array())


@pytest.mark.parametrize("command, nct_mode, name", [
    ("synth-all", None, "cost"),
    ("compare", "gate-count", "cost"),
    ("compare", "gate-count", "secondary"),
], ids=["synth-all-None-cost", "compare-gc-cost", "compare-gc-secondary"])
def test_cache_file_whose_costs_disagree_with_its_witnesses_is_recomputed(
    tmp_path, capsys, ncv012_full, command, nct_mode, name
):
    """A file of the run's spec, with whole CRCs, whose cost (or secondary
    cost) is its witness's plus one: served, it gave a histogram starting
    at cost 1."""
    _check_changed_file_is_recomputed(tmp_path, capsys, ncv012_full, command, nct_mode,
                                      name, lambda a: a + 1)


@pytest.mark.parametrize("command, nct_mode, name", [
    ("synth-all", None, "cost"),
    ("compare", "gate-count", "secondary"),
])
def test_cache_file_of_float_costs_is_recomputed(
    tmp_path, capsys, ncv012_full, command, nct_mode, name
):
    """A file of the run's spec, with whole CRCs, whose cost (or secondary
    cost) holds the right values as float64: served, synth-all ended in a
    TypeError from np.bincount and compare in one from Fraction."""
    _check_changed_file_is_recomputed(tmp_path, capsys, ncv012_full, command, nct_mode,
                                      name, lambda a: a.astype(np.float64))


# --------------------------------------------------------------------------
# A cache file that is corrupt, truncated, empty or of another spec is a miss

def _synth_all(metric, *flags):
    """Exit code, stdout and ``--out`` bytes of a synth-all run in the
    current directory, with ``cache`` as the cache directory."""
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["synth-all", "--metric", metric, "--cache-dir", "cache",
                     "--out", "table.csv", *flags])
    with open("table.csv", "rb") as fh:
        return code, buf.getvalue(), fh.read()


@pytest.fixture(scope="module")
def no_cache_runs(tmp_path_factory):
    """The outputs of a real --no-cache synth-all, by metric (set up before
    ``settled`` replaces the settle)."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("no-cache"))
    try:
        return {metric: _synth_all(metric, "--no-cache") for metric in ("ncv-111", "ncv-155")}
    finally:
        os.chdir(cwd)


@pytest.fixture
def settled(monkeypatch, ncv111_full, ncv155_full):
    """Log the CLI's NCV settles and serve them from the session tables."""
    tables = {t.metric.slug: t for t in (ncv111_full, ncv155_full)}
    calls = []

    def settle_all(metric, topology, options):
        calls.append(metric.slug)
        return tables[metric.slug]

    monkeypatch.setattr(search, "settle_all", settle_all)
    return calls


def _flip(offset):
    def corrupt(data):
        data = bytearray(data)
        data[offset % len(data)] ^= 0x10
        return bytes(data)
    return corrupt


def _shrink_gate_ids_shape(data):
    """Clear one bit of the gate-id matrix's width in its array header, so
    the header claims fewer bytes than the member holds and a reader that
    stops there never reaches the member's CRC."""
    units = data.index(b"), }", data.index(b"gate_ids.npy")) - 1
    data = bytearray(data)
    data[units] &= ~(1 << ((data[units] - ord("0")).bit_length() - 1))
    return bytes(data)


CORRUPTIONS = {
    "empty": lambda data: b"",
    "truncated": lambda data: data[:len(data) // 2],
    "cut-before-end-record": lambda data: data[:-1],
    "table-csv-text": lambda data: b"function,cost\n0,1,2\nx\n",
    "flip-member-name": _flip(30),
    "flip-spec": _flip(200),
    "flip-cost-data": _flip(40_000),
    "flip-gate-ids-data": _flip(900_000),
    "flip-central-directory": _flip(-400),
    "flip-end-record": _flip(-10),
    "shrink-gate-ids-shape": _shrink_gate_ids_shape,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_cache_file_is_recomputed(
    tmp_path, monkeypatch, ncv111_full, no_cache_runs, settled, corruption
):
    expected = no_cache_runs["ncv-111"]
    monkeypatch.chdir(tmp_path)
    path, spec = cli.cache_entry(tmp_path / "cache", nv.NCV_111, nv.FULL_TOPOLOGY,
                                 nv.SearchOptions())
    cli.write_cached_table(path, spec, ncv111_full)
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    assert cli.read_cached_table(path, spec, nv.NCV_111, nv.FULL_TOPOLOGY) is None

    assert _synth_all("ncv-111") == expected
    assert settled == ["ncv-111"]
    rewritten = cli.read_cached_table(path, spec, nv.NCV_111, nv.FULL_TOPOLOGY)
    assert rewritten is not None
    assert all(map(np.array_equal, rewritten.witness_paths(), ncv111_full.witness_paths()))


def test_bit_flips_across_a_cache_file_never_serve_other_arrays(tmp_path, ncv111_full):
    """Flips in every member's zip and array headers, the zip directory at
    the end, and a spread of data offsets.  Each is a miss, or lands in a
    field the reader does not use (such as a local header's date) and
    serves the written table unchanged."""
    path, spec = cli.cache_entry(tmp_path, nv.NCV_111, nv.FULL_TOPOLOGY, nv.SearchOptions())
    cli.write_cached_table(path, spec, ncv111_full)
    data = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        starts = [info.header_offset for info in zf.infolist()]
    offsets = {o for start in starts for o in range(start, start + 160, 3)}
    offsets |= set(range(len(data) - 700, len(data), 5))
    offsets |= set(np.random.default_rng(0).integers(0, len(data), 40).tolist())
    bad = tmp_path / "bad.npz"
    for offset in sorted(offsets):
        bad.write_bytes(_flip(offset)(data))
        table = cli.read_cached_table(bad, spec, nv.NCV_111, nv.FULL_TOPOLOGY)
        if table is not None:
            assert all(map(np.array_equal, table.witness_paths(), ncv111_full.witness_paths()))
            assert np.array_equal(table.secondary_array(), ncv111_full.secondary_array())


@pytest.mark.parametrize("rows", ["one-short", "scalar"])
def test_cache_file_of_other_row_count_is_a_miss(tmp_path, ncv111_full, rows):
    """A well-formed file of this run's spec whose cost array lacks a row,
    or is a single number, holds no table."""
    path, spec = cli.cache_entry(tmp_path, nv.NCV_111, nv.FULL_TOPOLOGY, nv.SearchOptions())
    paths = ncv111_full.witness_paths()
    np.savez(
        path, spec=np.array(spec),
        cost=paths.cost[:-1] if rows == "one-short" else paths.cost[0],
        secondary=ncv111_full.secondary_array(), gate_ids=paths.gate_ids,
        lengths=paths.lengths,
    )
    assert cli.read_cached_table(path, spec, nv.NCV_111, nv.FULL_TOPOLOGY) is None


CACHED_ARRAY_CHANGES = {
    "float64": lambda a: a.astype(np.float64),
    "uint64": lambda a: a.astype(np.uint64),
    "int32": lambda a: a.astype(np.int32),
    "complex128": lambda a: a.astype(np.complex128),
    "extra-axis": lambda a: a[..., None],
    "0-d": lambda a: a.reshape(-1)[0],
    "dropped": lambda a: None,
}


@pytest.mark.parametrize("change", sorted(CACHED_ARRAY_CHANGES))
@pytest.mark.parametrize("name", ["cost", "secondary", "gate_ids", "lengths"])
def test_cache_file_of_another_dtype_or_shape_is_a_miss(tmp_path, ncv012_full, name, change):
    """A file of this run's spec whose array keeps its values in another
    dtype or shape, or is left out, is a miss (or, for a change that leaves
    the array as written, the table exactly): never an error, and never a
    table of other dtypes."""
    path, spec = cli.cache_entry(tmp_path, nv.NCV_012, nv.FULL_TOPOLOGY, nv.SearchOptions())
    _write_changed(path, spec, ncv012_full, name, CACHED_ARRAY_CHANGES[change])
    table = cli.read_cached_table(path, spec, nv.NCV_012, nv.FULL_TOPOLOGY)
    if table is not None:
        for got, want in zip((*table.witness_paths(), table.secondary_array()),
                             (*ncv012_full.witness_paths(), ncv012_full.secondary_array())):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _first_gates_replaced(table, kind, gate):
    """The table's gate ids with the first gate of each witness that begins
    with a ``kind`` gate replaced by ``gate`` (None: every first id by 200)."""
    ids = table.witness_paths().gate_ids.copy()
    if gate is None:
        ids[:, 0] = 200
    else:
        first = np.array([g.kind == kind for g in GATES] + [False])[ids[:, 0]]
        assert first.any()
        ids[first, 0] = GATES.index(gate)
    return ids


def test_cache_file_of_gate_ids_past_the_gate_list_is_recomputed(
    tmp_path, capsys, ncv012_full, ncv111_path
):
    """A file of this run's spec, with whole CRCs, whose first gate ids are
    200: writing its circuits ended in an IndexError traceback.  Ids that
    are codes of gates off the table's gate list are a miss too: CNOT a c in
    an ncv-111 path table, and TOF for a NOT in an ncv-012 table, whose
    costs still sum (NOT weighs 0, and the reader weighs no code off the
    list)."""
    cases = [
        ("ncv-012", "full", ncv012_full, None, None),
        ("ncv-111", "path", ncv111_path, "CNOT", nv.CNOT(0, 2)),
        ("ncv-012", "full", ncv012_full, "NOT", nv.TOF(0, 1, 2)),
    ]
    for i, (metric, topology, table, kind, gate) in enumerate(cases):
        circuits = tmp_path / f"circuits{i}.jsonl"
        argv = ["synth-all", "--metric", metric, "--topology", topology,
                "--circuits", str(circuits), "--cache-dir"]
        code, cold, err = run(capsys, *argv, str(tmp_path / f"cold{i}"))
        assert code == 0, err
        cold_circuits = circuits.read_bytes()

        cache = tmp_path / f"cache{i}"
        path, spec = cli.cache_entry(cache, table.metric, table.topology, nv.SearchOptions())
        paths = table.witness_paths()
        path.parent.mkdir()
        np.savez(
            path, spec=np.array(spec), cost=paths.cost, secondary=table.secondary_array(),
            gate_ids=_first_gates_replaced(table, kind, gate), lengths=paths.lengths,
        )
        assert cli.read_cached_table(path, spec, table.metric, table.topology) is None
        code, out, err = run(capsys, *argv, str(cache))
        assert code == 0, err
        assert (out, circuits.read_bytes()) == (cold, cold_circuits)
        assert cli.read_cached_table(path, spec, table.metric, table.topology) is not None


def test_cache_file_of_another_metric_is_recomputed(
    tmp_path, monkeypatch, ncv111_full, ncv155_full, no_cache_runs, settled
):
    expected = no_cache_runs["ncv-155"]
    monkeypatch.chdir(tmp_path)
    path, spec = cli.cache_entry(tmp_path / "cache", nv.NCV_111, nv.FULL_TOPOLOGY,
                                 nv.SearchOptions())
    cli.write_cached_table(path, spec, ncv111_full)
    path_155, spec_155 = cli.cache_entry(tmp_path / "cache", nv.NCV_155, nv.FULL_TOPOLOGY,
                                         nv.SearchOptions())
    path.replace(path_155)

    assert _synth_all("ncv-155") == expected
    assert settled == ["ncv-155"]
    assert cli.read_cached_table(path_155, spec_155, nv.NCV_155, nv.FULL_TOPOLOGY) is not None


def test_cache_file_of_other_reductions_is_recomputed(
    tmp_path, monkeypatch, no_cache_runs, settled
):
    """--no-prune-relabel gives other witnesses, so its file is no hit for a
    default run, and the default run's file is no hit for it."""
    expected = no_cache_runs["ncv-111"]
    monkeypatch.chdir(tmp_path)
    assert _synth_all("ncv-111", "--no-prune-relabel")[0] == 0
    assert _synth_all("ncv-111") == expected
    assert _synth_all("ncv-111", "--no-prune-relabel")[0] == 0
    assert _synth_all("ncv-111") == expected
    assert settled == ["ncv-111"] * 4
    assert _synth_all("ncv-111") == expected
    assert settled == ["ncv-111"] * 4


def _gate_list_positions(table):
    """The table's gate ids as format 2 stored them: each gate's position in
    the table's gate list, padded with the list's length."""
    gates = table.gate_list
    position = np.full(len(GATES) + 1, len(gates), dtype=np.uint8)
    position[[GATES.index(g) for g in gates]] = range(len(gates))
    return position[table.witness_paths().gate_ids]


def test_cache_file_of_an_older_format_is_recomputed(
    tmp_path, monkeypatch, ncv012_full, ncv111_path
):
    """Format 1 files hold ncv-012 witnesses without the input-NOT prefix,
    and format 2 files number gates by their position in the gate list, so
    a path table's ids are codes of other gates: a warm run must not serve
    other witnesses than a cold one."""
    for old_format, table in ((1, ncv012_full), (2, ncv111_path)):
        calls = []
        monkeypatch.setattr(search, "settle_all", lambda *a: calls.append(a) or table)
        cache = tmp_path / f"format{old_format}"
        path, spec = cli.cache_entry(cache, table.metric, table.topology, nv.SearchOptions())
        old = json.loads(spec)
        assert old["format"] == cli.CACHE_FORMAT == 3
        old_spec = json.dumps({**old, "format": old_format})
        if old_format == 1:
            cli.write_cached_table(path, old_spec, table)
        else:
            paths = table.witness_paths()
            ids = _gate_list_positions(table)
            assert not np.array_equal(ids, paths.gate_ids)
            cache.mkdir()
            np.savez(
                path, spec=np.array(old_spec), cost=paths.cost,
                secondary=table.secondary_array(), gate_ids=ids, lengths=paths.lengths,
            )
        assert cli.cached_table(table.metric, table.topology, cache, True) is table
        assert len(calls) == 1
        assert cli.read_cached_table(path, spec, table.metric, table.topology) is not None
        cli.cached_table(table.metric, table.topology, cache, True)
        assert len(calls) == 1


def test_compare_recomputes_a_table_csv_in_place_of_its_cache_file(
    tmp_path, capsys, monkeypatch, settled
):
    """A short CSV made a warm ``compare`` exit 2 (bad table row) when the
    cache held CSV tables; any file that is not a whole cache file is a miss."""
    path, _ = cli.cache_entry(tmp_path / "cache", nv.NCV_111, nv.FULL_TOPOLOGY,
                              nv.SearchOptions())
    path.parent.mkdir()
    path.write_text("function,cost\n0,1,2\nx\n")
    argv = ["compare", "--metric", "ncv-111", "--cache-dir", str(tmp_path / "cache")]
    code, stdout, err = run(capsys, *argv)
    assert code == 0, err
    assert settled == ["ncv-111"]
    assert (code, stdout, err) == run(capsys, *argv, "--no-cache")


def test_synth_all_writes_circuits(tmp_path, capsys):
    out = tmp_path / "path table.csv"
    circuits = tmp_path / "circuits.jsonl"
    code, _, _ = run(
        capsys, "synth-all", "--metric", "ncv-111", "--topology", "path",
        "--cache-dir", str(tmp_path / "cache"),
        "--out", str(out), "--circuits", str(circuits),
    )
    assert code == 0
    with circuits.open() as fh:
        records = read_table_jsonl(fh)
    assert len(records) == nv.N_FUNCTIONS
    cost, circuit = records[(0, 1, 2, 3, 4, 5, 7, 6)]
    assert cost == 9
    assert all(nv.PATH_TOPOLOGY.allows_gate(g) for g in circuit)


def test_compare_cli(tmp_path, capsys, warm_cache_dir):
    out = tmp_path / "compare.csv"
    code, stdout, _ = run(
        capsys, "compare", "--metric", "ncv-012",
        "--cache-dir", str(warm_cache_dir), "--out", str(out),
    )
    assert code == 0
    assert "#summary metric=ncv-012" in stdout
    assert "max_ratio=8.0000" in stdout
    text = out.read_text()
    assert text.startswith("function,nct_gc,nct_sub_cost")
    assert "#summary" in text


def test_internal_error_exits_6(capsys, monkeypatch, warm_cache_dir):
    def broken_compare(*args, **kwargs):
        raise nv.InternalError("internal error: substituted costs inconsistent")

    monkeypatch.setattr(nv.analysis, "compare", broken_compare)
    code, _, err = run(
        capsys, "compare", "--metric", "ncv-111", "--cache-dir", str(warm_cache_dir),
    )
    assert code == 6 and "internal error" in err


def test_any_other_exception_exits_6_without_a_traceback(tmp_path, capsys, monkeypatch):
    def broken_stats(args):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli._COMMANDS, "stats", broken_stats)
    code, out, err = run(capsys, "stats", str(tmp_path / "t.csv"))
    assert (code, out) == (6, "")
    assert err == "error: internal error: TypeError: unsupported operand\n"


def test_seed_option_is_gone(capsys):
    code, out, err = run(capsys, "--seed", "7", "synth", "--function", "0,1,2,3,4,5,6,7")
    assert (code, out) == (2, "") and "error" in err


def test_compare_with_wide_substitution_costs(tmp_path, capsys):
    code, stdout, err = run(
        capsys, "compare", "--metric", "custom:1,300,300",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "#summary metric=custom-1-300-300" in stdout


def test_compare_under_the_largest_equal_weights_gives_ncv_111s_ratios(tmp_path, capsys):
    """custom:w,w,w with w = 2^32, the largest weight the CLI takes, scales
    every ncv-111 cost by w: the histogram block is counted over distinct
    costs (no array as long as the largest cost), and the ratios are
    ncv-111's."""
    w = 2 ** 32
    code, stdout, err = run(
        capsys, "compare", "--metric", f"custom:{w},{w},{w}", "--no-cache",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0, err
    assert " max_ratio=2.5714 " in next(
        line for line in stdout.splitlines() if line.startswith("#summary witness ")
    )
    assert " max_ratio=3.3750 " in next(
        line for line in stdout.splitlines() if line.startswith("#summary worst-case ")
    )


def test_compare_under_an_all_zero_metric_writes_nothing_to_stderr(tmp_path):
    """Every NCV cost is 0 under custom:0,0,0, so the witness correlation is
    undefined: the summary says nan, and no numpy warning reaches stderr (a
    child process, because pytest collects warnings in process)."""
    src = os.path.dirname(os.path.dirname(nv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "ncvsynth", "compare", "--metric", "custom:0,0,0", "--no-cache",
         "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "#summary witness pearson=nan " in done.stdout


# --------------------------------------------------------------------------
# Hostile argv: every call ends in a documented exit code 0-5, never in a
# traceback or in exit 6 (the catch-all for a bug in ncvsynth).  Each call
# draws at most one hostile field, so that most calls get past the parser.

_INTS = st.one_of(
    st.integers(-3, 9),
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([MAX_WEIGHT - 1, MAX_WEIGHT, MAX_WEIGHT + 1, 2 ** 63, 2 ** 64]),
).map(str)
_FUNCTIONS = st.permutations(range(8)).map(lambda f: ",".join(map(str, f)))
_BAD_FUNCTIONS = st.one_of(
    st.lists(_INTS, max_size=10).map(",".join),
    st.text(alphabet="0123456789,- x.", max_size=20),
)
_METRICS = st.one_of(
    st.sampled_from(["ncv-111", "ncv-012", "ncv-155", f"custom:{MAX_WEIGHT},1,1"]),
    st.lists(st.integers(0, 3).map(str), min_size=3, max_size=3)
    .map(lambda weights: "custom:" + ",".join(weights)),
)
_BAD_METRICS = st.one_of(
    st.sampled_from(["ncv-999", "", "custom:", f"custom:1,{MAX_WEIGHT + 1},1"]),
    st.lists(st.one_of(_INTS, st.just("x")), max_size=4)
    .map(lambda weights: "custom:" + ",".join(weights)),
)
_CIRCUITS = st.lists(
    st.sampled_from(["NOT a", "CNOT a b", "V b c", "V+ c a", "TOF a b c", "# note", ""]),
    max_size=6,
).map("\n".join)
_BAD_CIRCUITS = st.text(alphabet="NOTCVF+abcd #\t\n", max_size=40)
_TABLES = st.lists(
    st.tuples(st.one_of(_FUNCTIONS, _BAD_FUNCTIONS), _INTS)
    .map(lambda row: f'"{row[0]}",{row[1]}'),
    max_size=4,
).map(lambda rows: "\n".join(["function,cost", *rows]))
_BAD_TABLES = st.text(alphabet='0123456789,-"\n functioscx', max_size=60)
#: Placeholders for the paths of the test's input file, a missing file and
#: a directory.
_PATHS = {"file": "<file>", "missing": "<missing>", "directory": "<directory>"}


@st.composite
def _hostile_argv(draw):
    """(argv, text): a synth, verify or stats call with at most one hostile
    field, and the text of the file ``<file>``."""
    command = draw(st.sampled_from(["synth", "verify", "stats"]))
    fields = {
        "synth": ["function", "metric", "topology"],
        "verify": ["path", "circuit", "function", "tol"],
        "stats": ["path", "table"],
    }[command]
    bad = draw(st.sampled_from([None, *fields]))

    def field(name, valid, hostile):
        return draw(hostile if bad == name else valid)

    if command == "synth":
        argv = ["synth", "--function", field("function", _FUNCTIONS, _BAD_FUNCTIONS),
                "--metric", field("metric", _METRICS, _BAD_METRICS),
                "--topology",
                field("topology", st.sampled_from(["full", "path"]), st.just("ring")),
                f"--max-states={draw(st.integers(-(2 ** 70), 50))}"]
        if draw(st.booleans()):
            argv.append(f"--max-cost={draw(_INTS)}")
        argv += draw(st.lists(st.sampled_from(["--no-prune-repeat", "--no-prune-relabel"]),
                              unique=True))
        return argv, ""
    path = field("path", st.just(_PATHS["file"]),
                 st.sampled_from([_PATHS["missing"], _PATHS["directory"]]))
    if command == "stats":
        return ["stats", path], field("table", _TABLES, _BAD_TABLES)
    argv = ["verify", "--circuit", path,
            "--function", field("function", _FUNCTIONS, _BAD_FUNCTIONS)]
    if draw(st.booleans()) or bad == "tol":
        tol = field("tol", st.sampled_from(["0", "1e-9", "0.5"]),
                    st.one_of(_INTS, st.sampled_from(["nan", "inf", "-1e-9", "x"])))
        argv.append(f"--tol={tol}")
    return argv, field("circuit", _CIRCUITS, _BAD_CIRCUITS)


@pytest.fixture(scope="module")
def hostile_paths(tmp_path_factory):
    work = tmp_path_factory.mktemp("hostile")
    (work / "directory").mkdir()
    return {placeholder: str(work / name) for name, placeholder in _PATHS.items()}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(call=_hostile_argv())
def test_hostile_calls_exit_0_to_5_without_a_traceback(hostile_paths, call):
    argv, text = call
    with open(hostile_paths[_PATHS["file"]], "w") as fh:
        fh.write(text)
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([hostile_paths.get(arg, arg) for arg in argv])
    assert 0 <= code <= 5, err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()


# Hostile synth-all and compare calls, on a cache directory prefilled with
# the session's tables.  A call without a state budget reads its tables
# from there; a synth-all call with ``--max-states`` (at most 50) reads no
# cache file and stops within 50 states, so it may draw any metric,
# reduction flags and cache directory.  No call settles a whole table.

#: The session fixture of each (metric, topology) table in the cache.
_CACHED = {("ncv-111", "full"): "ncv111_full", ("ncv-111", "path"): "ncv111_path",
           ("ncv-012", "full"): "ncv012_full", ("ncv-012", "path"): "ncv012_path",
           ("ncv-155", "full"): "ncv155_full"}
#: Placeholders of the cache, a new file, and paths where no file can be
#: written: in a missing directory, under a regular file, and a directory.
_TABLE_PATHS = {"<cache>": "cache", "<new>": "new.txt", "<in-missing>": "missing/out.txt",
                "<under-file>": "file/out.txt", "<directory>": "directory"}
_GOOD_OUT = st.sampled_from([None, "<new>"])
_BAD_OUT = st.sampled_from(["<in-missing>", "<under-file>", "<directory>"])


def _rejected(metric):
    """Whether the CLI refuses ``metric``: ``_BAD_METRICS`` also draws valid
    weights such as ``custom:0,0,0``, whose table the cache does not hold."""
    try:
        nv.CostMetric.parse(metric)
    except ValueError:
        return True
    return False


@st.composite
def _hostile_table_argv(draw):
    """A synth-all or compare call with at most one hostile field."""
    command = draw(st.sampled_from(["synth-all", "compare"]))
    outputs = ["out", "circuits"] if command == "synth-all" else ["out"]
    bad = draw(st.sampled_from([None, "metric", *outputs]))
    budget = command == "synth-all" and draw(st.booleans())
    if command == "compare":  # the cache holds the NCT gate-count table
        metric, topology = "ncv-012", None
    elif budget:
        metric, topology = draw(_METRICS), draw(st.sampled_from(["full", "path"]))
    else:
        metric, topology = draw(st.sampled_from(sorted(_CACHED)))
    if bad == "metric":
        metric = draw(_BAD_METRICS.filter(_rejected))
    argv = [command, "--metric", metric]
    argv += ["--topology", topology] if topology else []
    cache = "<cache>"
    if budget:
        cache = draw(st.sampled_from([cache, "<in-missing>", "<under-file>", "<directory>"]))
    argv += ["--cache-dir", cache]
    for option in outputs:
        path = draw(_BAD_OUT if bad == option else _GOOD_OUT)
        argv += [f"--{option}", path] if path else []
    if budget:
        argv.append(f"--max-states={draw(st.integers(-(2 ** 70), 50))}")
        argv += draw(st.lists(
            st.sampled_from(["--no-prune-repeat", "--no-prune-relabel", "--no-cache"]), unique=True
        ))
    return argv


@pytest.fixture(scope="module")
def table_call_paths(tmp_path_factory, request, nct_gc):
    work = tmp_path_factory.mktemp("hostile-tables")
    (work / "file").write_text("")
    (work / "directory").mkdir()
    cache = work / "cache"
    _seed_ncv_tables(cache, *map(request.getfixturevalue, _CACHED.values()))
    cli.write_cached_table(
        *cli.cache_entry(cache, None, nv.FULL_TOPOLOGY, nv.SearchOptions()), nct_gc
    )
    return {placeholder: str(work / name) for placeholder, name in _TABLE_PATHS.items()}


_run_search = search._run_search


def _budgeted_search(gates, weights, symmetries, options, target=None):
    assert options.max_states is not None, "a call settled a table the cache holds"
    return _run_search(gates, weights, symmetries, options, target)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_hostile_table_argv())
def test_hostile_table_calls_exit_0_to_5_without_a_traceback(table_call_paths, argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_run_search", _budgeted_search)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([table_call_paths.get(arg, arg) for arg in argv])
    assert 0 <= code <= 5, err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
