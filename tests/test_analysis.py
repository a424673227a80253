"""Histograms, weighted averages, and comparison statistics."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncvsynth as nv
from ncvsynth import IncompleteTable, MetricMismatch
from ncvsynth.analysis import CostHistogram, _comparison_stats, render_4dp
from ncvsynth.model import rank_tables

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
    x, y = np.array(pairs, dtype=np.int64).T
    xs = {(i,): c for i, c in enumerate(x.tolist())}
    ys = {(i,): c for i, c in enumerate(y.tolist())}
    with np.errstate(all="raise"):  # a constant column must not divide by 0
        stats = _comparison_stats(x, y, lambda i: (i,))
    corr, average, best, best_func, equal = _reference_compare_costs(xs, ys)
    assert stats.pearson_correlation == pytest.approx(corr, nan_ok=True)
    assert (stats.average_ratio, stats.max_ratio) == (average, best)
    assert stats.max_ratio_function == best_func
    assert stats.equal_count == equal


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


def test_compare_reads_the_lex_tables_it_is_given(
    monkeypatch, nct_gc, ncv012_full, nct_lex012, comparison_012
):
    def no_settle(*args, **kwargs):
        raise AssertionError("compare settled a lex table it was given")

    monkeypatch.setattr(nv.analysis, "settle_all_nct", no_settle)
    lexmin, lexmax = nct_lex012
    report = nv.compare(nct_gc, ncv012_full, nv.NCV_012, lexmin=lexmin, lexmax=lexmax)
    assert report == comparison_012


@pytest.mark.parametrize("kind", ["mode", "metric", "library", "topology"])
@pytest.mark.parametrize("slot, mode", [("lexmin", "lex-min"), ("lexmax", "lex-max")])
def test_compare_rejects_a_lex_table_of_another_kind(
    nct_gc, ncv012_full, nct_lex012, kind, slot, mode
):
    """Each lex table must be the NCT table of its mode under the metric, on
    the gate-count table's topology; here one differs from it in ``kind``."""
    tables = dict(zip(("lexmin", "lexmax"), nct_lex012))
    table = tables[slot]
    tables[slot] = {
        "mode": lambda: tables["lexmax" if slot == "lexmin" else "lexmin"],
        "metric": lambda: nv.settle_all_nct(mode, nv.NCV_111),
        "library": lambda: ncv012_full,
        "topology": lambda: nv.SynthesisTable(
            table.metric, nv.PATH_TOPOLOGY, "NCT", table.gate_list, table.witness_paths(),
            table.secondary_array(), mode=table.mode,
        ),
    }[kind]()
    with pytest.raises(MetricMismatch):
        nv.compare(nct_gc, ncv012_full, nv.NCV_012, **tables)


def test_compare_accepts_a_gate_count_table_settled_with_a_metric(
    ncv012_full, nct_lex012, comparison_012
):
    """A gate-count table's weights are (1, 0) whatever its metric, so one
    settled with a metric gives the report of the table settled without."""
    gate_count = nv.settle_all_nct("gate-count", nv.NCV_012)
    assert (gate_count.mode, gate_count.metric) == ("gate-count", nv.NCV_012)
    lexmin, lexmax = nct_lex012
    report = nv.compare(gate_count, ncv012_full, nv.NCV_012, lexmin=lexmin, lexmax=lexmax)
    assert report == comparison_012


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
