"""Histograms, weighted averages, and comparison statistics."""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncvsynth as nv
from ncvsynth import IncompleteTable, MetricMismatch
from ncvsynth import io as nio
from ncvsynth.analysis import CostHistogram, _comparison_stats, render_4dp
from ncvsynth.model import CostMetric, rank_tables

from helpers import substituted_witness_cost

TABLE1_NCV111 = (1, 9, 51, 187, 417, 714, 1373, 3176, 4470, 4122, 10008, 5036, 1236, 8340, 1180)
TABLE1_NCT_GC = (1, 12, 102, 625, 2780, 8921, 17049, 10253, 577)


def _fake_costs(row):
    costs = {}
    i = 0
    for cost, count in enumerate(row):
        for _ in range(count):
            costs[("fn", i)] = cost
            i += 1
    return costs


def test_weighted_average_rendering_from_published_rows():
    h111 = CostHistogram.from_costs(_fake_costs(TABLE1_NCV111))
    assert h111.weighted_average_text == "10.0319"
    hgc = CostHistogram.from_costs(_fake_costs(TABLE1_NCT_GC))
    assert hgc.weighted_average_text == "5.8655"


def test_incomplete_counts_rejected():
    with pytest.raises(IncompleteTable):
        CostHistogram.from_costs({tuple(range(8)): 0})


def test_partial_histogram_allowed_when_requested():
    h = CostHistogram.from_costs({"a": 1, "b": 3}, expect_total=None)
    assert h.total == 2 and h.weighted_average == Fraction(2)


@pytest.mark.parametrize("cost", [1.5, "3", None])
def test_histogram_of_a_cost_that_is_not_an_integer_raises(cost):
    with pytest.raises(TypeError):
        CostHistogram.from_costs({"a": 1, "b": cost}, expect_total=None)


def test_histogram_of_complete_table(ncv111_full):
    h = nv.histogram(ncv111_full)
    assert h.total == nv.N_FUNCTIONS
    assert h.counts == dict(enumerate(TABLE1_NCV111))


@pytest.mark.parametrize("name", ["ncv111_full", "ncv012_full", "nct_gc"])
def test_histogram_equals_histogram_of_cost_mapping(name, request):
    table = request.getfixturevalue(name)
    mapping = dict(zip(table.functions(), table.costs.tolist()))
    assert nv.histogram(table) == CostHistogram.from_costs(mapping)
    # the counting loop as the reference
    counts = Counter(mapping.values())
    total = sum(c * n for c, n in counts.items())
    assert nv.histogram(table) == CostHistogram(
        dict(counts), nv.N_FUNCTIONS, Fraction(total, nv.N_FUNCTIONS)
    )


@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=50))
@example([2**62, 2**62 + 1, 2**62 + 3])
@example([-3, -3, 5])
def test_histogram_of_a_cost_array_is_exact(costs):
    """Negative costs are counted, and the weighted average is exact where
    an int64 sum of the costs would wrap."""
    hist = CostHistogram.from_costs(np.array(costs, dtype=np.int64), expect_total=None)
    assert hist.counts == dict(Counter(costs)) and hist.total == len(costs)
    assert hist.weighted_average == (Fraction(sum(costs), len(costs)) if costs else 0)
    assert hist == CostHistogram.from_costs(dict(enumerate(costs)), expect_total=None)


def test_render_4dp():
    assert render_4dp(Fraction(1, 3)) == "0.3333"
    assert render_4dp(Fraction(2, 3)) == "0.6667"
    assert render_4dp(Fraction(5, 1)) == "5.0000"
    assert render_4dp(Fraction(-1, 2)) == "-0.5000"
    assert render_4dp(Fraction(-1, 30000)) == "0.0000"
    assert render_4dp(Fraction(1, 20000)) == "0.0000"  # half to even
    assert render_4dp(Fraction(3, 20000)) == "0.0002"
    # exact past a float's 53 bits
    assert render_4dp(Fraction(2**63 + 1, 2)) == "4611686018427387904.5000"


def test_compare_costs_self_comparison(ncv111_full):
    costs = ncv111_full.costs
    stats = _comparison_stats(costs, costs, rank_tables().function)
    assert stats.pearson_correlation == pytest.approx(1.0)
    assert stats.max_ratio == 1
    assert stats.average_ratio == 1
    assert stats.equal_count == nv.N_FUNCTIONS


def _reference_compare_costs(xs, ys):
    """The per-function Fraction loop that ``_comparison_stats`` replaces."""
    funcs = sorted(ys)
    ratio_sum, best, best_func, n = Fraction(0), Fraction(0), funcs[0], 0
    for f in funcs:
        if ys[f] == 0:
            continue
        r = Fraction(xs[f], ys[f])
        ratio_sum += r
        n += 1
        if r > best:
            best, best_func = r, f
    x = np.array([xs[f] for f in funcs], dtype=float)
    y = np.array([ys[f] for f in funcs], dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = float(np.corrcoef(x, y)[0, 1])
    return corr, ratio_sum / n if n else Fraction(0), best, best_func, int((x == y).sum())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 4)), min_size=2, max_size=40))
@example([(3, 0), (0, 0), (5, 0)])          # every y == 0
@example([(4, 2), (2, 1), (1, 1)])          # 4/2 ties 2/1: the first wins
@example([(1, 1), (2, 1), (4, 2), (0, 0)])  # 2/1 first, then 4/2
@example([(0, 3), (0, 1)])                  # every ratio 0
def test_compare_costs_matches_fraction_loop(pairs):
    with np.errstate(all="raise"):  # a constant column must not divide by 0
        _assert_stats_match_fraction_loop(pairs)


def _assert_stats_match_fraction_loop(pairs):
    x, y = np.array(pairs, dtype=np.int64).T
    xs = {(i,): c for i, c in enumerate(x.tolist())}
    ys = {(i,): c for i, c in enumerate(y.tolist())}
    stats = _comparison_stats(x, y, lambda i: (i,))
    corr, average, best, best_func, equal = _reference_compare_costs(xs, ys)
    assert stats.pearson_correlation == pytest.approx(corr, nan_ok=True)
    assert (stats.average_ratio, stats.max_ratio) == (average, best)
    assert stats.max_ratio_function == best_func
    assert stats.equal_count == equal


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2 ** 32),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=2, max_size=40),
    st.lists(st.tuples(st.integers(0, 2 ** 40), st.integers(0, 2 ** 40)), max_size=5),
)
@example(2 ** 32, [(18, 7), (27, 8), (0, 0)], [])
@example(3_037_000_500, [(36, 14), (18, 7), (1, 1)], [])  # 36/14 ties 18/7: the first wins
def test_comparison_stats_match_fraction_loop_at_large_costs(scale, small, large):
    """Costs up to those the CLI's largest weight, 2^32, gives (and past
    them): small pairs scaled by a common weight, so that pairs repeat and
    ratios tie, and a few drawn from the whole range.  The counts, the
    first max-ratio entry and the exact sums must not wrap."""
    _assert_stats_match_fraction_loop([(a * scale, b * scale) for a, b in small] + large)


@pytest.mark.parametrize("w", [7, 10 ** 6, 3_037_000_500, 2 ** 32])
def test_comparison_under_equal_weights_is_ncv_111s_scaled(w, nct_gc, comparison_111):
    """Under custom:w,w,w every cost is w times its ncv-111 cost, so every
    cost column is w times ncv-111's and every statistic equals ncv-111's,
    up to the largest weight the CLI takes (2^32)."""
    metric = CostMetric.parse(f"custom:{w},{w},{w}")
    report = nv.compare(nct_gc, nv.settle_all(metric), metric)
    assert np.array_equal(report.nct_gc, comparison_111.nct_gc)
    for name in ("nct_sub_cost", "nct_sub_min", "nct_sub_max", "ncv_opt_cost"):
        assert np.array_equal(getattr(report, name), w * getattr(comparison_111, name)), name
    for name in ("witness", "worst_case", "best_case"):
        got, want = getattr(report, name), getattr(comparison_111, name)
        assert got.pearson_correlation == pytest.approx(want.pearson_correlation, rel=1e-12)
        assert replace(got, pearson_correlation=0.0) == replace(want, pearson_correlation=0.0)
    assert (report.witness.max_ratio, report.worst_case.max_ratio) == (
        Fraction(18, 7), Fraction(27, 8)
    )
    # The histogram block: per cost of any column, each column's count, then
    # the weighted averages, from ncv-111's columns with the NCV costs times w.
    columns = [
        k * column.astype(object) for k, column in zip(
            (1, w, w),
            (comparison_111.nct_gc, comparison_111.nct_sub_cost, comparison_111.ncv_opt_cost),
        )
    ]
    counters = [Counter(column.tolist()) for column in columns]
    text = nio.comparison_text(report).splitlines()
    assert [list(map(int, row.split())) for row in text[1:-1]] == [
        [cost, *(counter[cost] for counter in counters)]
        for cost in sorted(set().union(*counters))
    ]
    assert text[-1].split() == [
        "WA", *(render_4dp(Fraction(sum(column), len(column))) for column in columns)
    ]


@pytest.mark.filterwarnings("error")
def test_compare_costs_of_constant_costs_is_nan_without_a_warning():
    """Every cost is 0 under custom:0,0,0, so r is undefined: nan, and
    numpy's divide warning is not raised."""
    zeros, ramp = np.zeros(5, dtype=np.int64), np.arange(5)
    for xs in (zeros, ramp):
        stats = _comparison_stats(xs, zeros, range(5).__getitem__)
        assert math.isnan(stats.pearson_correlation)
        assert stats.average_ratio == stats.max_ratio == 0
    assert math.isnan(_comparison_stats(zeros, ramp, range(5).__getitem__).pearson_correlation)


def test_compare_requires_matching_metric(nct_gc, ncv111_full):
    with pytest.raises(MetricMismatch):
        nv.compare(nct_gc, ncv111_full, nv.NCV_012)


def test_compare_settles_no_table(monkeypatch, nct_gc, ncv012_full, comparison_012):
    """The bounds over every gate-count-optimal circuit come from the
    gate-count table it is given: no NCT table is settled."""
    def no_settle(*args, **kwargs):
        raise AssertionError("compare settled a table")

    monkeypatch.setattr(nv.search, "_run_search", no_settle)
    assert nv.compare(nct_gc, ncv012_full, nv.NCV_012) == comparison_012


def _relabelled(table, mode):
    return nv.SynthesisTable(
        table.metric, table.topology, table.library, table.gate_list,
        table.witness_paths(), table.secondary_array(), mode=mode,
    )


@pytest.mark.parametrize("kind", ["mode", "library"])
@pytest.mark.parametrize("slot, mode", [("lexmin", "lex-min"), ("lexmax", "lex-max")])
def test_compare_rejects_a_lex_table_of_another_kind(
    nct_gc, ncv012_full, nct_lexmax012, kind, slot, mode
):
    """compare takes its ``slot`` bound from the gate-count table, so a lex
    table given in its NCT slot is refused: the lex-max table, or the NCT
    arrays labelled lex-min as a cache file of the deleted lex-min mode holds
    (``kind`` "mode").  An NCV table is refused there even when labelled
    gate-count (``kind`` "library", the same case for both slots)."""
    table = {
        "mode": lambda: nct_lexmax012 if mode == "lex-max" else _relabelled(nct_gc, mode),
        "library": lambda: _relabelled(ncv012_full, "gate-count"),
    }[kind]()
    assert (table.mode, table.library) == (
        (mode, "NCT") if kind == "mode" else ("gate-count", "NCV")
    )
    with pytest.raises(MetricMismatch, match="gate-count"):
        nv.compare(table, ncv012_full, nv.NCV_012)


def test_compare_rejects_gate_counts_no_layer_reaches(nct_gc, ncv012_full):
    """A gate count past every layer leaves the bounds of its function
    unset: the consistency check refuses it."""
    paths = nct_gc.witness_paths()
    cost = paths.cost.copy()
    cost[nv.model.function_rank((0, 1, 2, 3, 4, 5, 7, 6))] = 20
    table = nv.SynthesisTable(
        None, nct_gc.topology, "NCT", nct_gc.gate_list, paths._replace(cost=cost),
        nct_gc.secondary_array(), mode=nct_gc.mode,
    )
    with pytest.raises(nv.InternalError, match="0, 1, 2, 3, 4, 5, 7, 6"):
        nv.compare(table, ncv012_full, nv.NCV_012)


def test_compare_accepts_a_gate_count_table_settled_with_a_metric(ncv012_full, comparison_012):
    """A gate-count table's weights are (1, 0) whatever its metric, so one
    settled with a metric gives the report of the table settled without."""
    gate_count = nv.settle_all_nct("gate-count", nv.NCV_012)
    assert (gate_count.mode, gate_count.metric) == ("gate-count", nv.NCV_012)
    assert nv.compare(gate_count, ncv012_full, nv.NCV_012) == comparison_012


def _cost_columns(report):
    return (report.nct_gc, report.nct_sub_cost, report.nct_sub_min,
            report.nct_sub_max, report.ncv_opt_cost)


def test_substituted_cost_column_matches_per_function_reference(nct_gc, comparison_012):
    columns = _cost_columns(comparison_012)
    # entry i of every column is the function of rank i, as in the tables
    assert all(c.shape == (nv.N_FUNCTIONS,) and c.dtype == np.int64 for c in columns)
    gcs, subs = (c.tolist() for c in columns[:2])
    for func, gc, sub in zip(nct_gc.functions(), gcs, subs, strict=True):
        assert gc == nct_gc.cost_of(func)
        assert sub == substituted_witness_cost(nct_gc, func, nv.NCV_012)


def test_comparison_report_invariants(comparison_111):
    report = comparison_111
    for gc, sub, sub_min, sub_max, ncv_opt in zip(*(c.tolist() for c in _cost_columns(report))):
        assert ncv_opt <= sub_min <= sub <= sub_max
    assert report.witness.equal_count <= report.best_case.equal_count
    assert report.best_case.max_ratio <= report.worst_case.max_ratio
    assert report.max_ratio == report.worst_case.max_ratio
    assert report.max_ratio >= report.average_ratio >= 1
    lines = report.summary_lines()
    assert lines[0].startswith("#summary metric=ncv-111")
    assert any("worst-case" in line for line in lines)
