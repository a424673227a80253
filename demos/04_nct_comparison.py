"""
Optimal Toffoli-library circuits versus direct NCV synthesis
============================================================

Gate count is the traditional cost for NOT/CNOT/Toffoli circuits, but a
Toffoli is itself a composite of five NCV gates.  Substituting each Toffoli
shows how far gate-count-optimal circuits sit from truly optimal NCV ones.
"""

import ncvsynth as nv
from ncvsynth import io as nio
from ncvsynth.model import function_rank
from ncvsynth.nct import toffoli_substitute

# The NCT library settles fast: every function needs at most 8 gates.
nct_table = nv.settle_all_nct()
print(nio.histogram_text(nv.histogram(nct_table)))

for metric in (nv.NCV_111, nv.NCV_012):
    ncv_table = nv.settle_all(metric)
    report = nv.compare(nct_table, ncv_table, metric)
    print(f"=== comparison under {metric.slug}")
    for line in report.summary_lines():
        print(line)
    print()

# The worst case under ncv-012: every gate-count-optimal realization of
# [7,6,4,5,2,3,1,0] has 4 gates, but they range from two CNOTs plus two NOTs
# (substituted cost 2) to two Toffolis plus two NOTs (substituted cost 16),
# while the direct ncv-012 optimum is 2.  Picking the wrong optimal NCT
# circuit costs a factor of 8.  The lex-max table, derived from the gate
# counts, holds for each function an optimal NCT circuit of greatest
# substituted cost.
func = (7, 6, 4, 5, 2, 3, 1, 0)
worst = nv.settle_all_nct("lex-max", nv.NCV_012)
dearest = worst.witness(func)
assert nv.check_realizes(dearest, func) and len(dearest) == nct_table.cost_of(func)
# The loop's last table and report are ncv-012's.
sub_max = int(report.nct_sub_max[function_rank(func)])
assert nv.circuit_cost(toffoli_substitute(dearest), nv.NCV_012) == sub_max == 16
print("cheapest-to-substitute optimal NCT circuit:")
print(nio.format_circuit(nct_table.witness(func)))
print("dearest-to-substitute optimal NCT circuit:")
print(nio.format_circuit(dearest))
print("direct ncv-012 optimum:")
print(nio.format_circuit(ncv_table.witness(func)))
print(f"ncv-012 costs: substituted worst case {sub_max} vs direct "
      f"{ncv_table.cost_of(func)}; ratio 8")
