"""Histograms, weighted averages, and cross-library comparison statistics.

All aggregate values are computed in exact integer/rational arithmetic and
rendered to four decimals only at the edge, so repeated runs agree to the
last digit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import IncompleteTable, InternalError, MetricMismatch
from .model import GATES, CostMetric, rank_tables
# settle_all_nct is imported here too because the benchmark's tracer wraps it by this name.
from .nct import GATE_COUNT, _substituted_bounds, settle_all_nct, substituted_weight  # noqa: F401
from .search import N_FUNCTIONS, SynthesisTable


def render_4dp(value: Fraction) -> str:
    """Exact rational rounded (half-even) and rendered to 4 decimals."""
    units = round(value * 10_000)
    whole, frac = divmod(abs(units), 10_000)
    return f"{'-' if units < 0 else ''}{whole}.{frac:04d}"


@dataclass(frozen=True)
class CostHistogram:
    """Counts per cost over a complete table, plus the exact weighted average."""

    counts: dict[int, int]
    total: int
    weighted_average: Fraction

    @classmethod
    def from_costs(
        cls, costs: Mapping | np.ndarray, expect_total: int | None = N_FUNCTIONS
    ) -> "CostHistogram":
        """The histogram of a mapping's integer values, or of an array of
        costs.  IncompleteTable unless it counts ``expect_total`` costs;
        TypeError for a value that is not an integer."""
        if isinstance(costs, Mapping):
            values = map(operator.index, costs.values())
            costs = np.fromiter(values, dtype=np.int64, count=len(costs))
        if expect_total is not None and len(costs) != expect_total:
            raise IncompleteTable(f"expected {expect_total} entries, got {len(costs)}")
        return _count(costs)

    @property
    def weighted_average_text(self) -> str:
        return render_4dp(self.weighted_average)


def _count(costs: np.ndarray) -> CostHistogram:
    """The histogram of an int64 cost array, negative costs included.  The
    weighted sum runs over the distinct costs as Python ints, so it cannot
    wrap as an int64 sum would."""
    seen, counts = (a.tolist() for a in np.unique(costs, return_counts=True))
    weighted = sum(c * n for c, n in zip(seen, counts))
    return CostHistogram(dict(zip(seen, counts)), len(costs), Fraction(weighted, len(costs) or 1))


def histogram(table: SynthesisTable) -> CostHistogram:
    return _count(table.costs)


# --------------------------------------------------------------------------
# Cross-library comparison

@dataclass(frozen=True)
class ComparisonStats:
    """Statistics of one (x, y) cost pairing over all functions."""

    pearson_correlation: float
    average_ratio: Fraction
    max_ratio: Fraction
    max_ratio_function: tuple[int, ...]
    equal_count: int


def _comparison_stats(
    x: np.ndarray, y: np.ndarray, function_of: Callable[[int], Sequence]
) -> ComparisonStats:
    """Pearson correlation, mean and max of x/y, and #(x == y), over two
    aligned integer cost arrays; ``function_of(i)`` names entry i.  Entries
    with y == 0 (the identity, and the free NOT class under a zero-weight
    NOT metric) are left out of the ratios.  The ratios are exact, summed
    once per distinct (x, y) pair, and the max-ratio function is the first
    entry attaining the maximum."""
    # r is undefined (nan) where a column is constant, as every cost is under
    # custom:0,0,0; numpy would warn as it divides by the zero deviation.
    defined = len(x) and x.min() < x.max() and y.min() < y.max()
    corr = float(np.corrcoef(x.astype(float), y.astype(float))[0, 1]) if defined else float("nan")
    at = np.flatnonzero(y != 0)
    # Each entry's (x, y) pair coded by the ranks of x and y among their
    # distinct values: a code is below len(at) ** 2, where one made of the
    # costs themselves could wrap.
    (xs, xi), (ys, yi) = (np.unique(c[at], return_inverse=True) for c in (x, y))
    code = xi * len(ys) + yi
    codes, counts = np.unique(code, return_counts=True)
    xi, yi = np.divmod(codes, len(ys))
    ratios = [Fraction(p, q) for p, q in zip(xs[xi].tolist(), ys[yi].tolist())]
    n = int(counts.sum())
    total = sum((r * c for r, c in zip(ratios, counts.tolist())), Fraction(0))
    best = max([Fraction(0), *ratios])
    first = 0
    if best > 0:
        tops = codes[[r == best for r in ratios]]
        first = int(at[np.argmax(np.isin(code, tops))])
    return ComparisonStats(
        pearson_correlation=corr,
        average_ratio=total / n if n else Fraction(0),
        max_ratio=best,
        max_ratio_function=function_of(first),
        equal_count=int((x == y).sum()),
    )


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Optimal NCT circuits compared against optimal NCV circuits.

    Each cost column is a read-only int64 array by rank: entry i is the
    function of rank i.  ``nct_gc`` is the NCT gate count and
    ``nct_sub_cost`` the metric cost of the deterministic gate-count witness
    after Toffoli substitution; ``witness`` statistics are computed from it.
    ``nct_sub_min``/``nct_sub_max`` bound the substituted cost over *all*
    gate-count-optimal circuits (one pass over the gate-count table's
    layers), so ``worst_case`` answers how expensive an optimal NCT circuit
    can be relative to the NCV optimum (``ncv_opt_cost``), independent of
    circuit selection.
    """

    metric: CostMetric
    nct_gc: np.ndarray
    nct_sub_cost: np.ndarray
    nct_sub_min: np.ndarray
    nct_sub_max: np.ndarray
    ncv_opt_cost: np.ndarray
    witness: ComparisonStats
    worst_case: ComparisonStats
    best_case: ComparisonStats

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComparisonReport):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    # Convenience views mirroring the witness-circuit statistics.
    @property
    def pearson_correlation(self) -> float:
        return self.witness.pearson_correlation

    @property
    def average_ratio(self) -> Fraction:
        return self.witness.average_ratio

    @property
    def equal_count(self) -> int:
        return self.witness.equal_count

    @property
    def max_ratio(self) -> Fraction:
        """Worst-case ratio over all gate-count-optimal NCT circuits."""
        return self.worst_case.max_ratio

    @property
    def max_ratio_function(self) -> tuple[int, ...]:
        return self.worst_case.max_ratio_function

    def summary_lines(self) -> list[str]:
        w, lo, hi = self.witness, self.best_case, self.worst_case
        fn = ",".join(str(v) for v in hi.max_ratio_function)
        return [
            f"#summary metric={self.metric.slug}",
            f"#summary witness pearson={w.pearson_correlation:.4f} "
            f"mean_ratio={render_4dp(w.average_ratio)} "
            f"max_ratio={render_4dp(w.max_ratio)} equal_count={w.equal_count}",
            f"#summary best-case mean_ratio={render_4dp(lo.average_ratio)} "
            f"max_ratio={render_4dp(lo.max_ratio)} equal_count={lo.equal_count}",
            f"#summary worst-case mean_ratio={render_4dp(hi.average_ratio)} "
            f"max_ratio={render_4dp(hi.max_ratio)} equal_count={hi.equal_count} "
            f"max_ratio_function={fn}",
        ]


def compare(
    nct_table: SynthesisTable, ncv_table: SynthesisTable, metric: CostMetric
) -> ComparisonReport:
    """Build the full comparison for one metric.

    ``nct_table`` must be a gate-count table, settled with any metric or
    none: its witnesses are substituted, and its gate counts give the
    bounds over every gate-count-optimal circuit.
    """
    if ncv_table.metric != metric:
        raise MetricMismatch(
            f"NCV table was built for {ncv_table.metric and ncv_table.metric.slug}, "
            f"not {metric.slug}"
        )
    if nct_table.mode != GATE_COUNT or nct_table.library != "NCT":
        raise MetricMismatch("comparison needs the NCT gate-count table")

    # Array entry i of every table is the function of rank i.
    functions = rank_tables()
    paths = nct_table.witness_paths()
    weights = np.array([substituted_weight(g, metric) for g in GATES] + [0])
    gc = paths.cost
    sub = weights[paths.gate_ids].sum(axis=1)
    sub_min, sub_max = _substituted_bounds(nct_table, metric)
    y = ncv_table.costs

    bad = np.flatnonzero((sub_min > sub) | (sub > sub_max) | (sub_min < y))
    if len(bad):
        raise InternalError(
            "internal error: substituted costs inconsistent at "
            f"{functions.function(int(bad[0]))}"
        )

    columns = [np.array(c, dtype=np.int64) for c in (gc, sub, sub_min, sub_max, y)]
    for column in columns:
        column.setflags(write=False)
    return ComparisonReport(
        metric,
        *columns,
        witness=_comparison_stats(sub, y, functions.function),
        worst_case=_comparison_stats(sub_max, y, functions.function),
        best_case=_comparison_stats(sub_min, y, functions.function),
    )
