"""Each benchmark check accepts a good input and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
from workloads import draw_requests  # noqa: E402

TOFFOLI = (0, 1, 2, 3, 4, 5, 7, 6)
# The 5-gate NCV realization of TOF(a, b; c) from the paper.
TOFFOLI_GATES = [
    ("V", (1,), 2), ("CNOT", (0,), 1), ("V+", (1,), 2), ("CNOT", (0,), 1), ("V", (0,), 2),
]
NCV111 = ref.METRIC_WEIGHTS["ncv-111"]


def test_histogram_off_by_one_is_rejected():
    published = ref.row_counts(ref.NCV111_FULL_ROW)
    assert ref.check_histogram("t", published, published, "10.0319", ref.NCV111_FULL_WA) == []
    corrupted = dict(published)
    corrupted[10] += 1
    assert ref.check_histogram("t", corrupted, published)
    assert ref.check_histogram("t", published, published, "10.0320", ref.NCV111_FULL_WA)


def test_published_weighted_averages_follow_from_the_rows():
    assert ref.weighted_average_text(ref.row_counts(ref.NCV111_FULL_ROW)) == ref.NCV111_FULL_WA
    assert ref.weighted_average_text(ref.row_counts(ref.NCT_GC_ROW)) == ref.NCT_GC_WA
    assert ref.weighted_average_text(ref.NCV012_COUNTS) == ref.NCV012_WA


def test_witness_with_a_gate_dropped_is_rejected():
    assert ref.check_circuits("t", [(TOFFOLI, 5, TOFFOLI_GATES)], NCV111) == []
    for i in range(len(TOFFOLI_GATES)):
        dropped = TOFFOLI_GATES[:i] + TOFFOLI_GATES[i + 1:]
        assert ref.check_circuits("t", [(TOFFOLI, 5, dropped)], NCV111)
        # even when the reported cost is corrected, the function is wrong
        assert ref.check_circuits("t", [(TOFFOLI, 4, dropped)], NCV111)


def test_reported_cost_must_match_the_table():
    records = [(TOFFOLI, 5, TOFFOLI_GATES)]
    assert ref.check_circuits("t", records, NCV111, {TOFFOLI: 5}) == []
    assert ref.check_circuits("t", records, NCV111, {TOFFOLI: 4})


def test_comparison_row_with_sub_min_above_sub_is_rejected():
    good = (ref.WORST_FUNCTION_012, 3, 16, 12, 16, 2)
    assert ref.check_comparison_rows([good]) == []
    func, gc, sub, _, sub_max, ncv = good
    assert ref.check_comparison_rows([(func, gc, sub, sub + 1, sub_max, ncv)])
    assert ref.check_comparison_rows([(func, gc, sub, ncv - 1, sub_max, ncv)])
    assert ref.check_comparison_rows([good], {func: ncv + 1})


def test_worst_case_ratio_check():
    good = (ref.WORST_FUNCTION_012, 3, 16, 12, 16, 2)
    assert ref.check_worst_case([good]) == []
    assert ref.check_worst_case([(ref.WORST_FUNCTION_012, 3, 15, 12, 15, 2)])


def test_verify_pairing_that_should_exit_1(tmp_path):
    from ncvsynth import cli

    circuit = tmp_path / "toffoli.txt"
    circuit.write_text(ref.format_circuit_text(TOFFOLI_GATES))
    outcomes = []
    for func, expected in ((TOFFOLI, 0), (tuple(range(8)), 1)):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["verify", "--circuit", str(circuit),
                           "--function", ref.format_function(func)])
        outcomes.append((f"verify {func}", expected, rc))
    assert ref.check_exit_codes(outcomes) == []
    # the mismatched pair reported as a success is caught
    label, expected, rc = outcomes[1]
    assert ref.check_exit_codes([(label, expected, 0)])


def test_invariance_and_oracle_checks_catch_a_changed_cost():
    costs = {(0, 1, 2, 3, 4, 5, 6, 7): 0, (1, 0, 3, 2, 5, 4, 7, 6): 1,
             (2, 3, 0, 1, 6, 7, 4, 5): 1, (4, 5, 6, 7, 0, 1, 2, 3): 1}
    full = ref.line_symmetries(ref.TOPOLOGY_PAIRS["full"])
    assert ref.check_invariance("t", costs, full) == []
    assert ref.check_oracle("t", costs, dict(costs), 1) == []
    changed = dict(costs)
    changed[(1, 0, 3, 2, 5, 4, 7, 6)] = 2
    assert ref.check_invariance("t", changed, full)
    assert ref.check_oracle("t", changed, costs, 1)
    assert ref.check_oracle("t", {(1, 0, 3, 2, 5, 4, 7, 6): 1}, {}, 1)


def test_reference_relabeling_is_a_conjugation():
    rows = ref.np.array([TOFFOLI])
    # TOF(a, b; c) with lines a and c exchanged is TOF(c, b; a)
    image = tuple(ref.relabel_functions(rows, (2, 1, 0))[0].tolist())
    assert image == ref.boolean_function([("TOF", (1, 2), 0)])
    assert ref.line_symmetries(ref.TOPOLOGY_PAIRS["path"]) == [(0, 1, 2), (2, 1, 0)]


def test_requests_depend_only_on_the_seed():
    assert draw_requests(3) == draw_requests(3)
    assert draw_requests(3) != draw_requests(4)
    assert len(draw_requests(3)) >= 100
