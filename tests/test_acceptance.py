"""Acceptance suite: published reference values, landmark costs, and the
property checks, each reporting one pass/fail line (run with -s to see them).
"""

from fractions import Fraction

import numpy as np

import ncvsynth as nv
from ncvsynth import SearchOptions
from ncvsynth.model import LINE_PERMUTATIONS, function_rank, invert_function, relabel_function
from ncvsynth.nct import toffoli_substitute

TOF_FUNC = (0, 1, 2, 3, 4, 5, 7, 6)

NCV111_ROW = (1, 9, 51, 187, 417, 714, 1373, 3176, 4470, 4122, 10008, 5036, 1236, 8340, 1180)
NCV012_COUNTS = {
    0: 8, 1: 48, 2: 192, 3: 408, 4: 480, 5: 192, 6: 16, 7: 192, 8: 1056,
    9: 3168, 10: 4320, 11: 672, 14: 2880, 15: 11520, 16: 4416, 21: 9856, 22: 896,
}
NCT_GC_ROW = (1, 12, 102, 625, 2780, 8921, 17049, 10253, 577)
PATH_ROW = (
    1, 7, 29, 82, 181, 334, 374, 334, 337, 753, 1652, 2654, 2482, 1674,
    1350, 3236, 6304, 6028, 1508, 1302, 2566, 4314, 2804, 14,
)


def check(criterion: str, description: str, ok: bool) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_1_ncv111_full_histogram(ncv111_full):
    hist = nv.histogram(ncv111_full)
    check("1", "NCV-111/full histogram row", hist.counts == dict(enumerate(NCV111_ROW)))
    check("1", "NCV-111/full weighted average 10.0319",
          hist.weighted_average_text == "10.0319")


def test_criterion_2_ncv012_full_histogram(ncv012_full):
    hist = nv.histogram(ncv012_full)
    check("2", "NCV-012/full histogram counts", hist.counts == NCV012_COUNTS)
    check("2", "NCV-012/full weighted average 14.9800",
          hist.weighted_average_text == "14.9800")


def test_criterion_3_nct_gate_count_histogram(nct_gc):
    hist = nv.histogram(nct_gc)
    check("3", "NCT gate-count histogram row", hist.counts == dict(enumerate(NCT_GC_ROW)))
    check("3", "NCT gate-count weighted average 5.8655",
          hist.weighted_average_text == "5.8655")


def test_criterion_4_path_histogram(ncv111_path):
    hist = nv.histogram(ncv111_path)
    check("4", "NCV-111/path histogram row (costs 0..23)", hist.counts == dict(enumerate(PATH_ROW)))


def test_criterion_5_comparison_extremes(comparison_111, comparison_012):
    c111, c012 = comparison_111, comparison_012
    check("5", "NCV-111 worst-case max ratio equals 27/8 and is attained",
          c111.max_ratio == Fraction(27, 8))
    check("5", "NCV-012 worst-case max ratio equals 8",
          c012.max_ratio == Fraction(8))
    witness_func = (7, 6, 4, 5, 2, 3, 1, 0)
    rank = function_rank(witness_func)
    sub_max, ncv_opt = int(c012.nct_sub_max[rank]), int(c012.ncv_opt_cost[rank])
    check("5", "witness function [7,6,4,5,2,3,1,0] attains 16/2 = 8",
          ncv_opt == 2 and Fraction(sub_max, ncv_opt) == 8)
    check("5", f"equal-cost count NCV-111 >= 1610 (got {c111.equal_count})",
          c111.equal_count >= 1610)
    check("5", f"equal-cost count NCV-012 >= 1774 (got {c012.equal_count})",
          c012.equal_count >= 1774)
    check("5", f"Pearson correlation NCV-111 in [0.88, 0.92] "
          f"(got {c111.pearson_correlation:.4f})",
          0.88 <= c111.pearson_correlation <= 0.92)
    check("5", f"Pearson correlation NCV-012 in [0.88, 0.92] "
          f"(got {c012.pearson_correlation:.4f})",
          0.88 <= c012.pearson_correlation <= 0.92)
    check("5", f"mean ratio NCV-111 in [1.0, 1.4402] "
          f"(got {float(c111.average_ratio):.4f})",
          1 <= c111.average_ratio <= Fraction(13902, 10000) + Fraction(5, 100))
    check("5", f"mean ratio NCV-012 <= 1.3228 "
          f"(got {float(c012.average_ratio):.4f})",
          1 <= c012.average_ratio <= Fraction(12728, 10000) + Fraction(5, 100))


def test_criterion_6_landmark_costs(ncv111_full, ncv111_path):
    full_landmarks = {
        TOF_FUNC: 5,                      # Toffoli
        (0, 1, 3, 2, 4, 5, 6, 7): 5,      # negative control on a
        (0, 1, 2, 3, 5, 4, 6, 7): 5,      # negative control on b
        (1, 0, 2, 3, 4, 5, 6, 7): 6,      # both controls negative
        (0, 1, 2, 3, 6, 7, 5, 4): 4,      # Peres
    }
    for func, expected in full_landmarks.items():
        check("6", f"full topology: cost({list(func)}) == {expected}",
              ncv111_full.cost_of(func) == expected)
    path_landmarks = {
        (0, 1, 4, 5, 2, 3, 7, 6): 6,      # (a,b,c) -> (b,a,c^ab)
        TOF_FUNC: 9,                      # TOF(a,b;c)
        (0, 1, 2, 7, 4, 5, 6, 3): 9,      # TOF(b,c;a)
        (0, 1, 2, 3, 4, 7, 6, 5): 13,     # TOF(a,c;b)
    }
    for func, expected in path_landmarks.items():
        check("6", f"path topology: cost({list(func)}) == {expected}",
              ncv111_path.cost_of(func) == expected)


def test_criterion_7a_all_witnesses_pass_unitary_oracle(
    ncv111_full, ncv012_full, ncv155_full, ncv111_path, nct_gc
):
    tables = {
        "ncv-111/full": ncv111_full,
        "ncv-012/full": ncv012_full,
        "ncv-155/full": ncv155_full,
        "ncv-111/path": ncv111_path,
        "nct/gate-count": nct_gc,
    }
    for name, table in tables.items():
        witnesses = ((f, table.witness(f)) for f in table.functions())
        checked, offender = nv.verify_witnesses(witnesses)
        check("7a", f"all {checked} witnesses of {name} pass exactly",
              checked == nv.N_FUNCTIONS and offender is None)
    # substituted NCT witnesses realize the same functions
    sample = list(nct_gc.functions())[::1009]
    substituted = ((f, toffoli_substitute(nct_gc.witness(f))) for f in sample)
    checked, offender = nv.verify_witnesses(substituted)
    check("7a", f"substituted NCT witnesses pass exactly ({checked} sampled)",
          offender is None)


def test_criterion_7b_exhaustive_oracle_agrees(ncv111_full):
    oracle = nv.exhaustive_oracle(nv.NCV_111, nv.FULL_TOPOLOGY, max_cost=3)
    agree = all(ncv111_full.cost_of(f) == c for f, c in oracle.items())
    by_cost = {}
    for c in oracle.values():
        by_cost[c] = by_cost.get(c, 0) + 1
    check("7b", "exhaustive enumeration matches the engine for every function "
          f"of cost <= 3 ({len(oracle)} functions)",
          agree and by_cost == {0: 1, 1: 9, 2: 51, 3: 187})


def test_criterion_7c_pruning_rules_preserve_optimality(ncv111_full, ncv111_path):
    toggles = {
        "repeated-placement off": SearchOptions(no_repeat_placement=False),
        "relabel settling off": SearchOptions(settle_relabelings=False),
    }
    for topology, base in ((nv.FULL_TOPOLOGY, ncv111_full), (nv.PATH_TOPOLOGY, ncv111_path)):
        for name, options in toggles.items():
            table = nv.settle_all(nv.NCV_111, topology, options)
            same = np.array_equal(table.costs, base.costs)
            check("7c", f"{topology.slug}: {name} leaves all optimal costs unchanged", same)
            if name == "relabel settling off":
                # one state per orbit: 6 line symmetries on full, 2 on the
                # path, each also with V/V+ conjugation (about 1.96x)
                factor = 11 if topology == nv.FULL_TOPOLOGY else 3.8
                check("7c", f"{topology.slug}: the orbit search visits at least "
                      f"{factor}x fewer states ({table.states_visited} against "
                      f"{base.states_visited})",
                      table.states_visited >= factor * base.states_visited)


def test_criterion_7d_inverse_and_relabel_symmetry(
    ncv111_full, ncv012_full, ncv155_full, ncv111_path
):
    tables = {
        "ncv-111/full": ncv111_full,
        "ncv-012/full": ncv012_full,
        "ncv-155/full": ncv155_full,
        "ncv-111/path": ncv111_path,
    }
    for name, table in tables.items():
        costs = list(zip(table.functions(), table.costs.tolist()))
        inverse_ok = all(table.cost_of(invert_function(f)) == c for f, c in costs)
        check("7d", f"{name}: cost(f) == cost(f^-1) for all functions", inverse_ok)
        perms = table.topology.line_symmetries()
        relabel_ok = all(
            table.cost_of(relabel_function(f, perm)) == c
            for f, c in costs
            for perm in perms
        )
        check("7d", f"{name}: relabeling invariance over {len(perms)} permutations",
              relabel_ok)


def test_criterion_7e_v_count_law(ncv111_full, ncv012_full, ncv155_full):
    def v_counts(table):
        counts = []
        for f in table.functions():
            counts.append(sum(1 for g in table.witness(f) if g.kind in ("V", "V+")))
        return counts

    counts = v_counts(ncv111_full)
    check("7e", "ncv-111/full witnesses: V+V+ totals divisible by 3 and <= 9",
          all(c % 3 == 0 and c <= 9 for c in counts))
    for name, table in (("ncv-012/full", ncv012_full), ("ncv-155/full", ncv155_full)):
        counts = v_counts(table)
        holds = all(c % 3 == 0 and c <= 9 for c in counts)
        print(f"criterion 7e (report only): {name} V-count law "
              f"{'holds' if holds else 'violated'}; max total {max(counts)}")


def test_criterion_7f_lexicographic_containment(
    ncv111_full, ncv012_full, ncv155_full, ncv111_lex012
):
    cases = (
        ("ncv-111 primary, ncv-012 secondary", ncv111_lex012, ncv111_full, ncv012_full),
        ("ncv-111 primary, ncv-155 secondary",
         nv.settle_all(nv.NCV_111, secondary=nv.NCV_155), ncv111_full, ncv155_full),
        ("ncv-155 primary, ncv-111 secondary",
         nv.settle_all(nv.NCV_155, secondary=nv.NCV_111), ncv155_full, ncv111_full),
    )
    for name, lex, primary_table, secondary_table in cases:
        ok = all(
            (lex.cost_of(f), lex.secondary_of(f))
            == (primary_table.cost_of(f), secondary_table.cost_of(f))
            for f in lex.functions()
        )
        check("7f", f"lexicographic containment holds: {name}", ok)
