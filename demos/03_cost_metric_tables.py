"""
Complete synthesis tables under three cost metrics
==================================================

settle_all settles every one of the 40,320 reversible functions on 3 lines.
Each table takes 0.3-1.0 s on 2 vCPUs; the histograms below are the
reference distributions for the three built-in metrics.
"""

import time

import ncvsynth as nv
from ncvsynth import io as nio

for metric in (nv.NCV_111, nv.NCV_012, nv.NCV_155):
    start = time.time()
    table = nv.settle_all(metric)
    hist = nv.histogram(table)
    print(f"=== {metric.slug} (full topology) "
          f"[{time.time() - start:.1f}s, {table.states_visited:,} states]")
    print(nio.histogram_text(hist))

# One observation that holds in every metric above: the number of V plus V+
# gates in any optimal circuit is divisible by 3 and never exceeds 9.
table = nv.settle_all(nv.NCV_111)
v_totals = set()
for func in table.functions():
    v_totals.add(sum(1 for g in table.witness(func) if g.kind in ("V", "V+")))
print("distinct V+V+ totals over all ncv-111 witnesses:", sorted(v_totals))

# Lexicographic bi-criteria search: minimizing (ncv-111 cost, ncv-012 cost)
# reaches the ncv-012 optimum for every function, i.e. the set of optimal
# ncv-111 circuits contains circuits optimal under ncv-012 as well.
lex = nv.settle_all(nv.NCV_111, secondary=nv.NCV_012)
t012 = nv.settle_all(nv.NCV_012)
agree = sum(1 for f in lex.functions() if lex.secondary_of(f) == t012.cost_of(f))
print(f"functions whose ncv-111-optimal circuit set attains the ncv-012 "
      f"optimum: {agree} / {nv.N_FUNCTIONS}")
