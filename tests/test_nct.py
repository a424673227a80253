"""NCT tables, the substituted-cost bounds and Toffoli substitution."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncvsynth as nv
from ncvsynth import Circuit, NOT, TOF
from ncvsynth.model import GATES, function_rank
from ncvsynth.nct import (
    _substituted_bounds,
    substituted_weight,
    toffoli_decomposition,
    toffoli_substitute,
)

from helpers import substituted_witness_cost, table_pin

TOF_FUNC = (0, 1, 2, 3, 4, 5, 7, 6)
#: Substituted costs far beyond any fixed scalarization base.
WIDE_METRIC = nv.CostMetric.parse("custom:1,300,300")


@pytest.mark.parametrize(
    "metric,expected",
    [(nv.NCV_111, (1, 1, 5)), (nv.NCV_012, (0, 1, 8)), (nv.NCV_155, (1, 5, 25))],
)
def test_cost_model_weights(metric, expected):
    weights = tuple(substituted_weight(g, metric) for g in (NOT(0), nv.CNOT(0, 1), TOF(0, 1, 2)))
    assert weights == expected
    decomposition = Circuit(toffoli_decomposition(0, 1, 2))
    assert weights[2] == nv.circuit_cost(decomposition, metric)


def test_substitution_realizes_toffoli():
    substituted = toffoli_substitute(Circuit((TOF(0, 1, 2),), "NCT"))
    assert len(substituted) == 5 and substituted.library == "NCV"
    assert nv.check_realizes(substituted, TOF_FUNC)


def test_substitution_passthrough():
    plain = Circuit((NOT(0), nv.CNOT(1, 2)), "NCT")
    assert toffoli_substitute(plain).gates == plain.gates


def test_double_toffoli_substitutes_to_identity():
    double = Circuit((TOF(0, 1, 2), TOF(0, 1, 2)), "NCT")
    substituted = toffoli_substitute(double)
    assert len(substituted) == 10
    assert nv.check_realizes(substituted, tuple(range(8)))


def test_gate_count_table_basics(nct_gc):
    assert nct_gc.cost_of(tuple(range(8))) == 0
    assert nct_gc.cost_of(TOF_FUNC) == 1
    assert nct_gc.witness(TOF_FUNC) == Circuit((TOF(0, 1, 2),), "NCT")
    assert all(len(a) == nv.N_FUNCTIONS for a in nct_gc.witness_paths())


def test_witness_substitution_cost(nct_gc):
    assert substituted_witness_cost(nct_gc, TOF_FUNC, nv.NCV_111) == 5
    assert substituted_witness_cost(nct_gc, TOF_FUNC, nv.NCV_012) == 8


def test_lex_modes_pair_gate_count_with_substituted_cost(nct_gc):
    """The lex-max table pairs the gate count with the greatest substituted
    cost, which the gate-count table's bounds also give."""
    lexmax = nv.settle_all_nct("lex-max", nv.NCV_111)
    least, greatest = _substituted_bounds(nct_gc, nv.NCV_111)
    for func in (tuple(range(8)), TOF_FUNC, (7, 6, 4, 5, 2, 3, 1, 0)):
        rank = function_rank(func)
        assert lexmax.cost_of(func) == nct_gc.cost_of(func)
        assert least[rank] <= lexmax.secondary_of(func) == greatest[rank]
        assert nct_gc.secondary_of(func) == 0


@pytest.mark.parametrize("mode,sign", [("lex-max", -1)])
def test_wide_lex_witnesses_are_gate_count_optimal(nct_gc, mode, sign):
    """``sign`` is the direction the mode pushes the substituted cost: -1
    keeps the greatest over the gate-count-optimal circuits, which is what
    each witness substitutes to."""
    table = nv.settle_all_nct(mode, WIDE_METRIC)
    bounds = _substituted_bounds(nct_gc, WIDE_METRIC)
    for func in table.functions():
        witness = table.witness(func)
        rank = function_rank(func)
        assert len(witness) == table.cost_of(func) == nct_gc.cost_of(func)
        secondary = table.secondary_of(func)
        assert secondary == nv.circuit_cost(toffoli_substitute(witness), WIDE_METRIC)
        assert sign * secondary == min(sign * int(b[rank]) for b in bounds)


def _lex_oracle(metric):
    """Each function's (gate count, least substituted cost, greatest
    substituted cost) over its gate-count-optimal NCT circuits, by a
    breadth-first pass over the permutations with each NCT gate as a
    permutation of the rows (line a is row bit 4, c row bit 1): no packed
    keys and no symmetry."""
    moves = []
    for gate in nv.enumerate_gates(nv.FULL_TOPOLOGY, "NCT"):
        controls = sum(4 >> line for line in gate.controls)
        perm = tuple(
            row ^ (4 >> gate.target) if row & controls == controls else row for row in range(8)
        )
        assert perm == nv.realized_function(Circuit((gate,), "NCT"))
        moves.append((perm, substituted_weight(gate, metric)))
    identity = tuple(range(8))
    best = {identity: (0, 0, 0)}
    layer = [identity]
    while layer:
        reached = []
        for func in layer:
            count, least, greatest = best[func]
            for perm, weight in moves:
                after = tuple(perm[row] for row in func)
                known = best.get(after)
                if known is None:
                    best[after] = (count + 1, least + weight, greatest + weight)
                    reached.append(after)
                elif known[0] == count + 1:
                    best[after] = (
                        count + 1, min(known[1], least + weight), max(known[2], greatest + weight)
                    )
        layer = reached
    return best


def _check_lex_max_table(nct_gc, metric):
    """The lex-max table of ``metric``, and the bounds ``compare`` reads
    from the gate-count table, against the plain-Python pass: every witness
    is certified, has the gate count's length and substitutes to the
    table's secondary cost, the greatest of the pass."""
    best = _lex_oracle(metric)
    assert len(best) == nv.N_FUNCTIONS
    lexmax = nv.settle_all_nct("lex-max", metric)
    count, least, greatest = (list(c) for c in zip(*(best[f] for f in nct_gc.functions())))
    assert nct_gc.costs.tolist() == lexmax.costs.tolist() == count
    assert [b.tolist() for b in _substituted_bounds(nct_gc, metric)] == [least, greatest]
    assert lexmax.secondary_array().tolist() == greatest
    witnesses = [(f, lexmax.witness(f)) for f in lexmax.functions()]
    assert nv.verify_witnesses(witnesses) == (nv.N_FUNCTIONS, None)
    paths = lexmax.witness_paths()
    assert paths.lengths.tolist() == count
    weights = np.array([substituted_weight(g, metric) for g in GATES] + [0])
    assert weights[paths.gate_ids].sum(axis=1).tolist() == greatest


@pytest.mark.parametrize(
    "metric", [nv.NCV_111, nv.NCV_012, nv.NCV_155, WIDE_METRIC],
    ids=["ncv-111", "ncv-012", "ncv-155", "wide"],
)
def test_lex_tables_match_a_breadth_first_pass_over_the_permutations(nct_gc, metric):
    _check_lex_max_table(nct_gc, metric)


_WEIGHT = st.integers(0, 6)


@settings(max_examples=5, deadline=None)
@given(_WEIGHT, _WEIGHT, _WEIGHT)
@example(0, 0, 0)
@example(0, 6, 0)
def test_lex_max_tables_of_custom_metrics_match_the_pass(nct_gc, w_not, w_cnot, w_v):
    """Custom weights, zero included: with every substituted cost 0, each
    gate-count-optimal circuit ties for the greatest."""
    _check_lex_max_table(nct_gc, nv.CostMetric(w_not, w_cnot, w_v, w_v))


#: states_visited and the ``table_pin`` digest of the lex-max tables, which
#: are derived from the gate-count table's gate counts.
LEX_MAX_PINS = {
    "ncv-012": (nv.NCV_012, 6_828,
                "83b904c007cdfa9d6286777f5f94015e22f155b241db00e08ebc3d19b415a581"),
    "custom:1,300,300": (WIDE_METRIC, 6_828,
                         "fd6851ef52b58cd891f8e561d9b69498f676a145fd94d01de86dce67aa648ee3"),
}


@pytest.mark.parametrize("name", sorted(LEX_MAX_PINS))
def test_lex_max_table_pin(name, nct_lexmax012):
    metric, states, digest = LEX_MAX_PINS[name]
    table = nct_lexmax012 if metric == nv.NCV_012 else nv.settle_all_nct("lex-max", metric)
    assert table_pin(table) == (states, digest)


def test_nct_witnesses_fold(nct_gc):
    for func in ((7, 6, 4, 5, 2, 3, 1, 0), (1, 0, 2, 3, 4, 5, 6, 7)):
        witness = nct_gc.witness(func)
        assert nv.realized_function(witness) == func
        assert len(witness) == nct_gc.cost_of(func)
        # the substituted circuit realizes the same function
        assert nv.check_realizes(toffoli_substitute(witness), func)


def test_unknown_mode_rejected():
    for mode in ("lex-median", "lex-min"):
        with pytest.raises(ValueError, match="unknown NCT cost mode"):
            nv.settle_all_nct(mode, nv.NCV_111)
    with pytest.raises(nv.MetricMismatch):
        nv.settle_all_nct("lex-max", None)


def test_nct_library_without_a_toffoli_placement_is_refused():
    """NOT and CNOT reach only the affine functions, so a search of the NCT
    library on the path topology, which places no Toffoli gate, could never
    settle every function."""
    with pytest.raises(ValueError, match="affine"):
        nv.settle_all_nct(topology=nv.PATH_TOPOLOGY)
    with pytest.raises(ValueError, match="affine"):
        nv.settle_all(None, nv.PATH_TOPOLOGY, library="NCT")
