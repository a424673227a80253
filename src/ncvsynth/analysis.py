"""Histograms, weighted averages, and cross-library comparison statistics.

All aggregate values are computed in exact integer/rational arithmetic and
rendered to four decimals only at the edge, so repeated runs agree to the
last digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import IncompleteTable, InternalError, MetricMismatch
from .model import CostMetric
from .nct import GATE_COUNT, settle_all_nct, substituted_witness_cost
from .search import N_FUNCTIONS, SynthesisTable


def render_4dp(value: Fraction) -> str:
    """Exact rational rounded (half-even) and rendered to 4 decimals."""
    return f"{float(round(value, 4)):.4f}"


@dataclass(frozen=True)
class CostHistogram:
    """Counts per cost over a complete table, plus the exact weighted average."""

    counts: dict[int, int]
    total: int
    weighted_average: Fraction

    @classmethod
    def from_costs(cls, costs: Mapping, expect_total: int | None = N_FUNCTIONS) -> "CostHistogram":
        counts: dict[int, int] = {}
        for cost in costs.values():
            counts[cost] = counts.get(cost, 0) + 1
        total = sum(counts.values())
        if expect_total is not None and total != expect_total:
            raise IncompleteTable(f"expected {expect_total} entries, got {total}")
        wa = Fraction(sum(c * n for c, n in counts.items()), total) if total else Fraction(0)
        return cls(counts, total, wa)

    def as_row(self, max_cost: int | None = None) -> tuple[int, ...]:
        """Counts for costs 0..max_cost (defaults to the largest seen)."""
        top = max(self.counts) if max_cost is None else max_cost
        return tuple(self.counts.get(c, 0) for c in range(top + 1))

    @property
    def weighted_average_text(self) -> str:
        return render_4dp(self.weighted_average)


def histogram(table: SynthesisTable) -> CostHistogram:
    if not table.complete:
        raise IncompleteTable(
            f"table has {table.settled_count} of {N_FUNCTIONS} functions"
        )
    return CostHistogram.from_costs(table.costs)


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


def compare_costs(xs: Mapping, ys: Mapping) -> ComparisonStats:
    """Pearson correlation, mean/max of x/y (y > 0 only), and #(x == y).

    Functions with y == 0 (the identity, and the free NOT class under a
    zero-weight NOT metric) are excluded from the ratio statistics.
    """
    funcs = sorted(ys)
    if sorted(xs) != funcs:
        raise MetricMismatch("cost tables cover different function sets")
    x = np.array([xs[f] for f in funcs], dtype=float)
    y = np.array([ys[f] for f in funcs], dtype=float)
    corr = float(np.corrcoef(x, y)[0, 1])
    ratio_sum = Fraction(0)
    best = Fraction(0)
    best_func = funcs[0]
    n = 0
    for f in funcs:
        yy = ys[f]
        if yy == 0:
            continue
        r = Fraction(xs[f], yy)
        ratio_sum += r
        n += 1
        if r > best:
            best, best_func = r, f
    return ComparisonStats(
        pearson_correlation=corr,
        average_ratio=ratio_sum / n if n else Fraction(0),
        max_ratio=best,
        max_ratio_function=best_func,
        equal_count=int((x == y).sum()),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Optimal NCT circuits compared against optimal NCV circuits.

    ``nct_sub_cost`` is the metric cost of the deterministic gate-count
    witness after Toffoli substitution; ``witness`` statistics are computed
    from it.  ``sub_min``/``sub_max`` bound the substituted cost over *all*
    gate-count-optimal circuits (lexicographic searches), so ``worst_case``
    answers how expensive an optimal NCT circuit can be relative to the NCV
    optimum, independent of circuit selection.
    """

    metric: CostMetric
    rows: tuple[tuple[tuple[int, ...], int, int, int, int, int], ...]
    witness: ComparisonStats
    worst_case: ComparisonStats
    best_case: ComparisonStats

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

    ``nct_table`` must be the gate-count table (its witnesses are
    substituted); the lex-min and lex-max NCT tables are settled here.
    """
    if ncv_table.metric != metric:
        raise MetricMismatch(
            f"NCV table was built for {ncv_table.metric and ncv_table.metric.slug}, "
            f"not {metric.slug}"
        )
    if nct_table.mode != GATE_COUNT or nct_table.library != "NCT":
        raise MetricMismatch("comparison needs the NCT gate-count table")
    for t in (nct_table, ncv_table):
        if not t.complete:
            raise IncompleteTable("comparison needs complete tables")
    lexmin = settle_all_nct("lex-min", metric, topology=nct_table.topology)
    lexmax = settle_all_nct("lex-max", metric, topology=nct_table.topology)

    ys = ncv_table.costs
    gc = nct_table.costs
    sub = {f: substituted_witness_cost(nct_table, f, metric) for f in gc}
    sub_min = lexmin.secondaries()
    sub_max = {f: -s for f, s in lexmax.secondaries().items()}

    for f, y in ys.items():
        if not (sub_min[f] <= sub[f] <= sub_max[f]) or sub_min[f] < y:
            raise InternalError(
                f"internal error: substituted costs inconsistent at {f}"
            )
        if lexmin.costs[f] != gc[f]:
            raise InternalError(
                "internal error: lexicographic primary disagrees with gate count"
            )

    rows = tuple(
        (f, gc[f], sub[f], sub_min[f], sub_max[f], ys[f]) for f in sorted(ys)
    )
    return ComparisonReport(
        metric=metric,
        rows=rows,
        witness=compare_costs(sub, ys),
        worst_case=compare_costs(sub_max, ys),
        best_case=compare_costs(sub_min, ys),
    )
