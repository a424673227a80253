"""Command line behavior, exit codes, and cache correctness."""

import contextlib
import io as stdio
import os
import subprocess
import sys
import zipfile

import numpy as np
import pytest

import ncvsynth as nv
from ncvsynth import cli, nct, search
from ncvsynth import io as nio
from ncvsynth.cli import main
from ncvsynth.nct import toffoli_decomposition

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
])
def test_verify_tol_default_and_zero(tmp_path, capsys, tol, expected):
    circuit_file = tmp_path / "tof.txt"
    circuit_file.write_text(TOF_TEXT)
    argv = ["verify", "--circuit", str(circuit_file), *tol, "--function"]
    assert run(capsys, *argv, "0,1,2,3,4,5,7,6") == (0, expected, "")
    code, out, err = run(capsys, *argv, "0,1,2,3,4,5,6,7")
    assert (code, out) == (1, "") and err.startswith("FAIL: unitary entry (6,6) is 0+0j")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "x"])
def test_verify_tol_that_is_not_finite_and_non_negative_exits_2(tmp_path, capsys, tol):
    """nan ended in a traceback, -1 failed every circuit and inf passed any."""
    circuit_file = tmp_path / "tof.txt"
    circuit_file.write_text(TOF_TEXT)
    code, out, err = run(capsys, "verify", "--circuit", str(circuit_file),
                         "--function", "0,1,2,3,4,5,6,7", "--tol", tol)
    assert (code, out) == (2, "") and "--tol" in err and "Traceback" not in err


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
        "nct-gate-count_full.npz", "nct-lex-max-ncv-012_full.npz",
        "nct-lex-min-ncv-012_full.npz", "ncv-012_full.npz",
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
    assert nct_settles == [("gate-count", None), ("lex-min", "ncv-012"), ("lex-max", "ncv-012")]
    del nct_settles[:]
    second = run(capsys, *argv, "ncv-111")
    assert nct_settles == [("lex-min", "ncv-111"), ("lex-max", "ncv-111")]
    assert second == run(capsys, *argv, "ncv-111", "--no-cache")
    assert len(list(cache.iterdir())) == 7


@pytest.mark.parametrize("holder", ["lex-min of ncv-012", "lex-max of ncv-111"])
def test_nct_cache_file_of_another_spec_is_a_miss(
    tmp_path, capsys, ncv111_full, nct_settles, holder
):
    """The ncv-111 lex-min file holding another NCT table is recomputed."""
    cache = tmp_path / "cache"
    _seed_ncv_tables(cache, ncv111_full)
    path, spec = cli.cache_entry(cache, nv.NCV_111, nv.FULL_TOPOLOGY, nv.SearchOptions(),
                                 "lex-min")
    mode, metric = holder.split(" of ")
    metric = nv.CostMetric.parse(metric)
    other_path, other_spec = cli.cache_entry(cache, metric, nv.FULL_TOPOLOGY,
                                             nv.SearchOptions(), mode)
    cli.write_cached_table(path, other_spec, nv.settle_all_nct(mode, metric))
    assert other_path != path and other_spec != spec
    assert cli.read_cached_table(path, spec, nv.NCV_111, nv.FULL_TOPOLOGY, "lex-min") is None

    argv = ["compare", "--metric", "ncv-111", "--cache-dir", str(cache)]
    del nct_settles[:]
    assert run(capsys, *argv) == run(capsys, *argv, "--no-cache")
    assert ("lex-min", "ncv-111") in nct_settles
    assert cli.read_cached_table(path, spec, nv.NCV_111, nv.FULL_TOPOLOGY, "lex-min") is not None


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
    """``command`` on a cache whose ``nct_mode`` file has ``change`` applied
    to its ``name`` array: the file is a miss, the output is the cold run's,
    and the file is rewritten with the cold run's arrays."""
    cache = tmp_path / "cache"
    _seed_ncv_tables(cache, ncv012_full)
    argv = [command, "--metric", "ncv-012", "--cache-dir", str(cache)]
    expected = run(capsys, *argv)
    assert expected[0] == 0, expected[2]
    path, spec = cli.cache_entry(cache, nv.NCV_012, nv.FULL_TOPOLOGY, nv.SearchOptions(),
                                 nct_mode)
    table = cli.read_cached_table(path, spec, nv.NCV_012, nv.FULL_TOPOLOGY, nct_mode)
    _write_changed(path, spec, table, name, change)
    assert cli.read_cached_table(path, spec, nv.NCV_012, nv.FULL_TOPOLOGY, nct_mode) is None

    assert run(capsys, *argv) == expected
    rewritten = cli.read_cached_table(path, spec, nv.NCV_012, nv.FULL_TOPOLOGY, nct_mode)
    assert all(map(np.array_equal, rewritten.witness_paths(), table.witness_paths()))
    assert np.array_equal(rewritten.secondary_array(), table.secondary_array())


@pytest.mark.parametrize("command, nct_mode, name", [
    ("synth-all", None, "cost"),
    ("compare", "lex-min", "secondary"),
    ("compare", "lex-max", "secondary"),
])
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
    ("compare", "lex-min", "secondary"),
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


def test_cache_file_of_gate_ids_past_the_gate_list_is_recomputed(tmp_path, capsys, ncv012_full):
    """A file of this run's spec, with whole CRCs, whose first gate ids are
    200: writing its circuits ended in an IndexError traceback."""
    circuits = tmp_path / "circuits.jsonl"
    argv = ["synth-all", "--metric", "ncv-012", "--circuits", str(circuits), "--cache-dir"]
    code, cold, err = run(capsys, *argv, str(tmp_path / "cold"))
    assert code == 0, err
    cold_circuits = circuits.read_bytes()

    path, spec = cli.cache_entry(tmp_path / "cache", nv.NCV_012, nv.FULL_TOPOLOGY,
                                 nv.SearchOptions())
    paths = ncv012_full.witness_paths()
    gate_ids = paths.gate_ids.copy()
    gate_ids[:, 0] = 200
    path.parent.mkdir()
    np.savez(
        path, spec=np.array(spec), cost=paths.cost, secondary=ncv012_full.secondary_array(),
        gate_ids=gate_ids, lengths=paths.lengths,
    )
    assert cli.read_cached_table(path, spec, nv.NCV_012, nv.FULL_TOPOLOGY) is None
    code, out, err = run(capsys, *argv, str(tmp_path / "cache"))
    assert code == 0, err
    assert (out, circuits.read_bytes()) == (cold, cold_circuits)
    assert cli.read_cached_table(path, spec, nv.NCV_012, nv.FULL_TOPOLOGY) is not None


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
        records = nio.read_table_jsonl(fh)
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
