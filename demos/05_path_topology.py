"""
Synthesis with restricted qubit interactions
============================================

When 2-qubit gates may only couple a-b and b-c (a path, the only connected
3-vertex alternative to the full triangle), optimal circuits grow: the
hardest functions need 23 gates instead of 14.
"""

import ncvsynth as nv
from ncvsynth import io as nio

table = nv.settle_all(nv.NCV_111, nv.PATH_TOPOLOGY)
print(nio.histogram_text(nv.histogram(table)))

# The path analogue of the Peres gate: the cheapest non-linear reversible
# transformation under restricted interactions, (a,b,c) -> (b,a,c^ab).
swapped_peres = (0, 1, 4, 5, 2, 3, 7, 6)
print("cheapest non-linear path gate, cost", table.cost_of(swapped_peres))
print(nio.format_circuit(table.witness(swapped_peres)))

# Toffoli costs depend on where the target sits: targets on an end line cost
# 9, a target on the middle line costs 13.
for name, func in (
    ("TOF(a,b;c)", (0, 1, 2, 3, 4, 5, 7, 6)),
    ("TOF(b,c;a)", (0, 1, 2, 7, 4, 5, 6, 3)),
    ("TOF(a,c;b)", (0, 1, 2, 3, 4, 7, 6, 5)),
):
    cost = table.cost_of(func)
    circuit = table.witness(func)
    assert all(nv.PATH_TOPOLOGY.allows_gate(g) for g in circuit)
    print(f"{name}: cost {cost}")
    print(nio.format_circuit(circuit))

# Only the a<->c relabeling respects the path, so the relabeling symmetry
# group shrinks from 6 permutations to 2; with V<->V+ conjugation (V and V+
# weigh the same) the search's group has 4 symmetries here against 12 on
# the full topology.  Settling one state per orbit cuts the states it visits
# about 4x against the unreduced path search.
print("path line symmetries:", nv.PATH_TOPOLOGY.line_symmetries())
print("states visited:", table.states_visited)
