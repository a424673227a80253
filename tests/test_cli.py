"""Command line behavior, exit codes, and cache correctness."""

import pytest

import ncvsynth as nv
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


def test_stats_roundtrip(tmp_path, capsys, ncv111_full):
    table_file = tmp_path / "t.csv"
    with table_file.open("w", newline="") as fh:
        nio.write_table_csv(ncv111_full.costs, fh)
    code, out, _ = run(capsys, "stats", str(table_file))
    assert code == 0 and "weighted average: 10.0319" in out


def test_stats_missing_file_exits_5(tmp_path, capsys):
    assert run(capsys, "stats", str(tmp_path / "none.csv"))[0] == 5


def test_synth_all_cache_matches_fresh_run(tmp_path, capsys, warm_cache_dir, ncv111_full):
    """A cached table must equal a freshly computed one bit-for-bit."""
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
    cache_file = warm_cache_dir / "ncv-111_full.csv"
    assert cache_file.read_bytes() == fresh_out.read_bytes()


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


def test_seed_is_printed(capsys):
    code, out, _ = run(capsys, "--seed", "7", "synth", "--function", "0,1,2,3,4,5,6,7")
    assert code == 0 and out.startswith("seed: 7")


def test_compare_with_wide_substitution_costs(tmp_path, capsys):
    code, stdout, err = run(
        capsys, "compare", "--metric", "custom:1,300,300",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "#summary metric=custom-1-300-300" in stdout
