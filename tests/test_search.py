"""Search engine behavior: landmarks, oracles, budgets, determinism."""

import contextlib
import functools
import hashlib
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ncvsynth as nv
from ncvsynth import (
    BudgetExceeded,
    InternalError,
    InvalidFunction,
    SearchOptions,
)
from ncvsynth import search
from ncvsynth.model import (
    GATES,
    LINE_PERMUTATIONS,
    CostMetric,
    CircuitState,
    apply_circuit,
    bit_offset,
    enumerate_gates,
    function_rank,
    rank_tables,
    row_permutation,
)

from helpers import random_legal_circuit, state_of_permutation, table_pin

TOF_FUNC = (0, 1, 2, 3, 4, 5, 7, 6)
PERES_FUNC = (0, 1, 2, 3, 6, 7, 5, 4)

#: Values of the stacked forms' size constants under which every input of
#: ``_candidates``, ``_least_line_image`` and ``_mask_canonical`` takes the
#: loop form, takes the stacked form, or is chosen by size as in a search.
KERNEL_FORMS = {
    "loop": -1,
    "stacked": 1 << 62,
    "by size": None,
}


@contextlib.contextmanager
def kernel_form(form):
    """Run the kernels in ``form``, a key of ``KERNEL_FORMS``."""
    with pytest.MonkeyPatch.context() as patch:
        if KERNEL_FORMS[form] is not None:
            patch.setattr(search, "_STACKED_KEYS", KERNEL_FORMS[form])
            patch.setattr(search, "_STACKED_PARENTS", KERNEL_FORMS[form])
        yield


def test_identity_synthesizes_to_empty():
    cost, circuit = nv.synthesize_one(tuple(range(8)), nv.NCV_111)
    assert cost == 0 and len(circuit) == 0


def test_toffoli_and_peres_costs():
    assert nv.synthesize_one(TOF_FUNC, nv.NCV_111)[0] == 5
    assert nv.synthesize_one(PERES_FUNC, nv.NCV_111)[0] == 4


def test_path_toffoli_cost():
    cost, circuit = nv.synthesize_one(TOF_FUNC, nv.NCV_111, nv.PATH_TOPOLOGY)
    assert cost == 9
    assert all(nv.PATH_TOPOLOGY.allows_gate(g) for g in circuit)
    assert nv.check_realizes(circuit, TOF_FUNC)


def test_synthesize_one_rejects_non_permutation():
    with pytest.raises(InvalidFunction):
        nv.synthesize_one((0, 0, 1, 2, 3, 4, 5, 6), nv.NCV_111)


def test_witnesses_fold_to_their_functions(ncv111_full):
    for func in (TOF_FUNC, PERES_FUNC, (7, 6, 4, 5, 2, 3, 1, 0), (1, 0, 2, 3, 4, 5, 6, 7)):
        witness = ncv111_full.witness(func)
        assert nv.realized_function(witness) == func
        assert nv.circuit_cost(witness, nv.NCV_111) == ncv111_full.cost_of(func)


#: Toffoli, negative-control Toffoli, both-negative Toffoli, Peres and a
#: swap-Toffoli: deep functions whose searches drain many buckets.
LANDMARK_FUNCS = (
    TOF_FUNC, (0, 1, 3, 2, 4, 5, 6, 7), (1, 0, 2, 3, 4, 5, 6, 7), PERES_FUNC,
    (0, 1, 4, 5, 2, 3, 7, 6),
)


def test_synthesize_one_matches_full_table(request):
    """A search that stops at its target settles it as the full search does:
    same cost, same witness.  On ncv-012/path the zero-weight NOT re-enters
    buckets and the balls around the targets are largest."""
    rng = np.random.default_rng(2005)
    for name in ("ncv111_full", "ncv111_path", "ncv012_full", "ncv155_full", "ncv012_path"):
        table = request.getfixturevalue(name)
        randoms = [tuple(rng.permutation(8).tolist()) for _ in range(6)]
        for func in (*LANDMARK_FUNCS, *randoms):
            cost, circuit = nv.synthesize_one(func, table.metric, table.topology)
            assert cost == table.cost_of(func), (name, func)
            assert circuit == table.witness(func), (name, func)


#: SHA-256 of what ``synthesize_one`` returns for the five landmarks under
#: ncv-111, ncv-012 and ncv-155 on the full and the path topology, then for
#: 30 seeded functions, the i-th under the (i mod 6)-th of those (metric,
#: topology) pairs: per request its cost as little-endian int64, its
#: circuit's length as one byte and its gate codes.
SYNTHESIZE_ONE_DIGEST = "389709ff3f80649c559975385b0c77a37dfd60c545d332b4d5353907b09abaa4"


def test_synthesize_one_digest():
    """Witnesses of target searches, bit for bit, over zero-weight NOT
    (input masks in the group), a span of 5 and both topologies."""
    pairs = [(metric, topology) for metric in (nv.NCV_111, nv.NCV_012, nv.NCV_155)
             for topology in (nv.FULL_TOPOLOGY, nv.PATH_TOPOLOGY)]
    rng = np.random.default_rng(2929)
    requests = [(func, *pair) for pair in pairs for func in LANDMARK_FUNCS]
    requests += [(tuple(rng.permutation(8).tolist()), *pairs[i % 6]) for i in range(30)]
    digest = hashlib.sha256()
    for func, metric, topology in requests:
        cost, circuit = nv.synthesize_one(func, metric, topology)
        digest.update(np.int64(cost).astype("<i8").tobytes())
        digest.update(bytes([len(circuit.codes)]) + circuit.codes)
    assert digest.hexdigest() == SYNTHESIZE_ONE_DIGEST


# V and V+ weigh differently, so conjugation is out of the group and the
# target search conjugates its ball's images; NOT is free, and w_cnot > 2 w_v
# switches reduction (1) off.
@settings(max_examples=2, deadline=None)
@given(
    w_v=st.integers(1, 3),
    w_vplus=st.integers(1, 3),
    extra=st.integers(1, 3),
    path=st.booleans(),
    funcs=st.lists(st.permutations(range(8)), min_size=4, max_size=4),
)
@example(w_v=1, w_vplus=2, extra=1, path=True, funcs=[list(TOF_FUNC), list(PERES_FUNC)])
def test_target_search_matches_the_table_on_random_metrics(w_v, w_vplus, extra, path, funcs):
    assume(w_v != w_vplus)
    metric = CostMetric(0, 2 * w_v + extra, w_v, w_vplus)
    topology = nv.PATH_TOPOLOGY if path else nv.FULL_TOPOLOGY
    table = nv.settle_all(metric, topology)
    for func in map(tuple, funcs):
        cost, circuit = nv.synthesize_one(func, metric, topology)
        assert (cost, circuit) == (table.cost_of(func), table.witness(func)), func


def _not_prefix(circuit):
    """The leading NOT gates of a circuit."""
    gates = list(circuit)
    n = next((i for i, g in enumerate(gates) if g.kind != "NOT"), len(gates))
    return gates[:n]


# NOT is free, so the group holds the 8 input masks: each witness begins
# with the NOT layer of its mask, at most one NOT per line (the root's NOT
# images are in its orbit, so no path starts with a NOT).
@settings(max_examples=2, deadline=None)
@given(
    w_v=st.integers(1, 3),
    w_vplus=st.integers(1, 3),
    w_cnot=st.integers(1, 4),
    path=st.booleans(),
    funcs=st.lists(st.permutations(range(8)), min_size=4, max_size=4),
)
@example(w_v=1, w_vplus=2, w_cnot=3, path=True, funcs=[list(TOF_FUNC), list(PERES_FUNC)])
@example(w_v=1, w_vplus=1, w_cnot=4, path=False, funcs=[[7, 6, 5, 4, 3, 2, 1, 0]])
def test_not_free_witnesses_begin_with_the_input_nots(w_v, w_vplus, w_cnot, path, funcs):
    metric = CostMetric(0, w_cnot, w_v, w_vplus)
    topology = nv.PATH_TOPOLOGY if path else nv.FULL_TOPOLOGY
    table = nv.settle_all(metric, topology)
    for func in map(tuple, funcs):
        cost, circuit = nv.synthesize_one(func, metric, topology)
        assert (cost, circuit) == (table.cost_of(func), table.witness(func)), func
        prefix = [g.target for g in _not_prefix(circuit)]
        assert len(prefix) == len(set(prefix)) <= 3, circuit
        assert nv.check_realizes(circuit, func)
        assert nv.circuit_cost(circuit, metric) == cost


@pytest.mark.parametrize("secondary, not_weight, relabel, masks", [
    (None, 0, True, True),
    (nv.NCV_111, 0, True, False),   # NOT weighs (0, 1)
    (None, 1, True, False),
    (None, 0, False, False),        # --no-prune-relabel
])
def test_input_masks_join_the_group_only_when_every_not_is_free(
    monkeypatch, secondary, not_weight, relabel, masks
):
    seen = []
    plans = search._search_plan

    def spy(*args):
        seen.append(plans(*args).orbits)
        return plans(*args)

    monkeypatch.setattr(search, "_search_plan", spy)
    options = SearchOptions(settle_relabelings=relabel, max_cost=0)
    with pytest.raises(BudgetExceeded):
        nv.settle_all(CostMetric(not_weight, 1, 1, 1), secondary=secondary, options=options)
    (orbits,) = seen
    assert orbits.masks is masks
    assert len(orbits.compose) == (96 if masks else 12)


def test_no_drain_at_cost_zero_settles_a_state(monkeypatch):
    """The root is the identity's canonical key, so the NOT images of the
    identity, in its orbit, are no fresh states at cost 0 under ncv-012."""
    settled_at_zero = []
    drain = search._Search._drain

    def spy(self, cost):
        settled = drain(self, cost)
        if cost == (0, 0) and settled is not None:
            settled_at_zero.append(len(settled[0]))
        return settled

    monkeypatch.setattr(search._Search, "_drain", spy)
    for func in [(0, 1, 2, 3, 5, 4, 7, 6), (0, 1, 3, 2, 4, 5, 7, 6), (1, 0, 3, 2, 4, 5, 6, 7)]:
        assert nv.synthesize_one(func, nv.NCV_012)[0] == 1
    assert nv.synthesize_one((0, 1, 2, 3, 4, 5, 6, 7), nv.NCV_012)[0] == 0
    assert nv.settle_all(nv.NCV_012, nv.PATH_TOPOLOGY).states_visited == 118_696
    assert settled_at_zero == []


def test_each_drain_is_one_cost_pair(monkeypatch):
    """A bucket is one (primary, secondary) cost.  No gate of these searches
    weighs (0, 0) (ncv-012's NOT weighs (0, 1) under an ncv-111
    secondary), so none re-enters the bucket being drained, and each bucket
    drains once: every drain is of a distinct cost."""
    drained = []
    drain = search._Search._drain

    def spy(self, cost):
        drained.append(cost)
        return drain(self, cost)

    monkeypatch.setattr(search._Search, "_drain", spy)
    for settle, drains in (
        (lambda: nv.settle_all_nct(), 8),
        (lambda: nv.settle_all(nv.NCV_111), 14),
        (lambda: nv.settle_all(nv.NCV_111, secondary=nv.NCV_012), 113),
        (lambda: nv.settle_all(nv.NCV_012, secondary=nv.NCV_111), 121),
    ):
        drained.clear()
        settle()
        assert len(drained) == len(set(drained)) == drains


@pytest.mark.parametrize("name", ["ncv111_full", "ncv111_path"])
def test_every_witness_is_optimal_and_legal(name, request):
    table = request.getfixturevalue(name)
    witnesses = [(f, table.witness(f)) for f in table.functions()]
    assert len(witnesses) == nv.N_FUNCTIONS
    assert nv.verify_witnesses(witnesses, topology=table.topology) == (nv.N_FUNCTIONS, None)
    for func, circuit in witnesses:
        assert nv.circuit_cost(circuit, table.metric) == table.cost_of(func)
        assert all(table.topology.allows_gate(g) for g in circuit)


def test_table_of_some_rows_rejected(ncv111_full):
    """A table holds every function: two rows of a full table are no table."""
    paths = ncv111_full.witness_paths()
    ranks = np.array([function_rank(TOF_FUNC), function_rank(PERES_FUNC)])
    with pytest.raises(ValueError):
        nv.SynthesisTable(
            nv.NCV_111, nv.FULL_TOPOLOGY, "NCV", ncv111_full.gate_list,
            nv.WitnessPaths(*(a[ranks] for a in paths)),
            ncv111_full.secondary_array()[ranks],
        )


def _corrupt_lengths_past_width(ids, lengths):
    lengths[5] = ids.shape[1] + 1


def _corrupt_negative_length(ids, lengths):
    lengths[5] = -1


def _corrupt_gate_id_past_list(ids, lengths):
    ids[7, 0] = 200


def _corrupt_gate_id_off_the_list(ids, lengths):
    """A Toffoli's code in an NCV table."""
    ids[7, 0] = GATES.index(nv.TOF(0, 1, 2))


def _corrupt_padding(ids, lengths):
    ids[9, lengths[9]] = 0


@pytest.mark.parametrize("corrupt", [
    _corrupt_lengths_past_width, _corrupt_negative_length,
    _corrupt_gate_id_past_list, _corrupt_gate_id_off_the_list, _corrupt_padding,
])
def test_table_rejects_gate_ids_that_are_no_witness(ncv111_full, corrupt):
    paths = ncv111_full.witness_paths()
    ids, lengths = paths.gate_ids.copy(), paths.lengths.copy()
    corrupt(ids, lengths)
    with pytest.raises(ValueError):
        nv.SynthesisTable(
            nv.NCV_111, nv.FULL_TOPOLOGY, "NCV", ncv111_full.gate_list,
            nv.WitnessPaths(paths.cost, ids, lengths), ncv111_full.secondary_array(),
        )


def test_costs_is_a_read_only_view_in_sorted_order(ncv111_full):
    """``costs`` is the read-only int64 cost array of the witness paths, by
    rank, and rank order is sorted order."""
    costs = ncv111_full.costs
    assert costs is ncv111_full.witness_paths().cost and not costs.flags.writeable
    assert costs.dtype == np.int64 and costs.shape == (nv.N_FUNCTIONS,)
    funcs = list(ncv111_full.functions())
    assert funcs == sorted(funcs)
    assert costs.tolist() == [ncv111_full.cost_of(f) for f in funcs]
    assert costs[function_rank(TOF_FUNC)] == ncv111_full.cost_of(TOF_FUNC) == 5


def test_functions_are_the_same_interned_tuples_in_rank_order(ncv111_full, ncv111_path, nct_gc):
    functions = list(ncv111_full.functions())
    assert len(functions) == nv.N_FUNCTIONS
    assert all(type(f) is tuple for f in functions)
    assert np.array_equal(np.array(functions), rank_tables().outputs)
    for table in (ncv111_full, ncv111_path, nct_gc):
        for _ in range(2):
            assert all(a is b for a, b in zip(table.functions(), functions, strict=True))


def test_witness_of_an_equal_copy_or_numpy_row_is_the_same_circuit(ncv111_path):
    for func in ncv111_path.functions():
        witness = ncv111_path.witness(func)
        assert ncv111_path.witness(tuple(list(func))) == witness
        assert ncv111_path.witness(np.array(func)) == witness


@pytest.mark.parametrize("name", ["nct_gc", "ncv111_full", "ncv111_path"])
def test_witness_paths_row_by_row_equal_witness(name, request):
    table = request.getfixturevalue(name)
    paths = table.witness_paths()
    functions = list(table.functions())
    assert functions == list(map(tuple, rank_tables().outputs.tolist()))
    assert [function_rank(f) for f in functions] == list(range(nv.N_FUNCTIONS))
    assert all(len(a) == nv.N_FUNCTIONS for a in (*paths, table.secondary_array()))
    assert paths.cost.tolist() == [table.cost_of(f) for f in functions]
    assert np.array_equal(paths.cost, table.costs)
    assert paths.gate_ids.dtype == np.uint8
    listed = {GATES.index(g) for g in table.gate_list}
    for func, ids, length in zip(functions, paths.gate_ids.tolist(), paths.lengths.tolist()):
        assert set(ids[:length]) <= listed and set(ids[length:]) <= {len(GATES)}
        # witness() skips the per-gate library check; the result must be
        # the circuit the checked constructor builds from the codes.
        witness = table.witness(func)
        checked = nv.Circuit(tuple(GATES[i] for i in ids[:length]), table.library)
        assert witness == checked and hash(witness) == hash(checked)
        assert type(witness.gates) is tuple


def test_table_rejects_a_gate_outside_its_library(ncv111_full):
    with pytest.raises(ValueError):
        nv.SynthesisTable(
            nv.NCV_111, nv.FULL_TOPOLOGY, "NCT", ncv111_full.gate_list,
            ncv111_full.witness_paths(), ncv111_full.secondary_array(),
        )


@pytest.mark.parametrize("library", ["NCV", "NCT"])
@pytest.mark.parametrize("topology", [nv.FULL_TOPOLOGY, nv.PATH_TOPOLOGY])
def test_relabel_table_maps_gates_like_relabel_circuit(topology, library):
    """Row sigma of the (sigma x gate id) map, read at the codes of the gate
    list, is relabel_circuit by LINE_PERMUTATIONS[sigma % 6], after vswap
    for sigma >= 6; perms outside the topology's symmetries map some gate to
    255, and every id that is no code of the list maps to 255."""
    gates = enumerate_gates(topology, library)
    codes = [GATES.index(g) for g in gates]
    relabel = search._relabel_table(gates)
    assert relabel.shape == (2 * len(LINE_PERMUTATIONS), 256)
    assert (np.delete(relabel, codes, axis=1) == 255).all()
    plain = nv.Circuit(gates, library)
    for sid, ids in enumerate(relabel[:, codes].tolist()):
        perm = LINE_PERMUTATIONS[sid % len(LINE_PERMUTATIONS)]
        source = nv.vswap(plain) if sid >= len(LINE_PERMUTATIONS) else plain
        if perm in topology.line_symmetries():
            mapped = tuple(GATES[i] for i in ids)
            assert mapped == nv.relabel_circuit(source, perm, topology).gates
        else:
            assert 255 in ids
            with pytest.raises(nv.TopologyViolation):
                nv.relabel_circuit(source, perm, topology)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    topology=st.sampled_from([nv.FULL_TOPOLOGY, nv.PATH_TOPOLOGY]),
    library=st.sampled_from(["NCV", "NCT"]),
    no_repeat=st.booleans(),
)
def test_candidates_are_the_images_apply_gate_gives(seed, topology, library, no_repeat):
    """``_candidates`` on legal packed states (NCV circuits of 0-8 gates and
    Boolean states), with random placement sets (from none to all) and gate
    weights, in its loop and its stacked form: gate by gate in candidate
    order, the image ``apply_gate`` gives of each parent whose controls are
    Boolean, in parent order, less the parents whose set holds the gate's
    placement under reduction (1)."""
    rng = np.random.default_rng(seed)
    states = [apply_circuit(CircuitState.identity(),
                            random_legal_circuit(rng, int(rng.integers(9)), topology))
              for _ in range(6)]
    states += [state_of_permutation(rng.permutation(8).tolist()) for _ in range(3)]
    gates = enumerate_gates(topology, library)
    plan = search._expansion(gates, tuple((int(rng.integers(1, 3)), 0) for _ in gates))
    keys = np.array([state.pack() for state in states], dtype=np.uint64)
    gidx = np.arange(len(states), dtype=np.int64) + 100
    # Each parent's set holds each placement with a probability drawn per
    # parent from 0 (no placement) to 1 (every placement).
    density = rng.choice([0, 0.2, 0.5, 0.8, 1], size=(len(states), 1))
    held = rng.random((len(states), len(plan.placements))) < density
    placed = np.bitwise_or.reduce(np.where(held, plan.bits, 0), axis=1).astype(np.uint16)

    expected, expected_counts = [], []
    for code in plan.gate_ids.tolist():
        gate, before = GATES[code], len(expected)
        for state, index, last in zip(states, gidx.tolist(), placed.tolist()):
            if no_repeat and last & int(search._placement_bits(gates)[code]):
                continue
            try:
                expected.append((nv.apply_gate(state, gate).pack(), index))
            except nv.QuantumControl:
                pass
        expected_counts.append(len(expected) - before)
    for form in KERNEL_FORMS:
        with kernel_form(form):
            raw, preds, counts = search._candidates(plan, keys, gidx, placed, no_repeat)
        assert list(zip(raw.tolist(), preds.tolist())) == expected, form
        assert counts == expected_counts, form


def test_determinism():
    first = nv.synthesize_one(PERES_FUNC, nv.NCV_111)
    second = nv.synthesize_one(PERES_FUNC, nv.NCV_111)
    assert first == second


# --------------------------------------------------------------------------
# Exhaustive oracle

def test_oracle_max_cost_zero():
    assert nv.exhaustive_oracle(nv.NCV_111, max_cost=0) == {tuple(range(8)): 0}


def test_oracle_level_counts():
    oracle = nv.exhaustive_oracle(nv.NCV_111, max_cost=3)
    by_cost = {}
    for cost in oracle.values():
        by_cost[cost] = by_cost.get(cost, 0) + 1
    assert by_cost == {0: 1, 1: 9, 2: 51, 3: 187}


def test_oracle_agrees_with_engine(ncv111_full):
    oracle = nv.exhaustive_oracle(nv.NCV_111, max_cost=2)
    assert oracle
    for func, cost in oracle.items():
        assert ncv111_full.cost_of(func) == cost


def test_oracle_respects_weights():
    oracle = nv.exhaustive_oracle(nv.NCV_012, max_cost=1)
    by_cost = {}
    for cost in oracle.values():
        by_cost[cost] = by_cost.get(cost, 0) + 1
    # zero-weight NOTs settle the whole NOT-class at cost 0
    assert by_cost[0] == 8 and by_cost[1] == 48


def test_oracle_raises_past_its_state_bound(monkeypatch):
    """ncv-111 at reach 3 records 1,730 states; under a bound of 1,000 the
    oracle stops, where an unbounded walk may run out of memory."""
    monkeypatch.setattr(search, "ORACLE_MAX_STATES", 1000)
    with pytest.raises(BudgetExceeded, match="more than 1000 states of cost at most 3"):
        nv.exhaustive_oracle(nv.NCV_111, max_cost=3)
    assert len(nv.exhaustive_oracle(nv.NCV_111, max_cost=2)) == 1 + 9 + 51


#: Histograms that follow from group theory, not from the engine, for
#: metrics with zero-weight gates: each entry is a part of the histogram.
#: Every NCV gate but NOT fixes row 000.  Free V and V+ make CNOT (V V) and
#: the Toffolis built from V free, and these generate the 5,040
#: permutations that fix 000; one NOT moves 000 anywhere.  Free CNOT
#: generates GL(3, 2), the 168 linear functions, and with free NOT the
#: affine group, 1,344 functions.
ZERO_WEIGHT_COUNTS = [
    (CostMetric(1, 1, 0, 0), {0: 5040, 1: 35280}),
    (CostMetric(0, 0, 1, 1), {0: 1344}),
    (CostMetric(1, 0, 1, 1), {0: 168}),
]


@pytest.mark.parametrize("topology", [nv.FULL_TOPOLOGY, nv.PATH_TOPOLOGY], ids=["full", "path"])
@pytest.mark.parametrize("metric, counts", ZERO_WEIGHT_COUNTS, ids=["1100", "0011", "1011"])
def test_zero_weight_metrics_give_the_group_theory_histograms(metric, counts, topology):
    """The path topology reaches the same groups: CNOT on a-b and b-c
    generates GL(3, 2).  Every witness is certified and weighs its cost."""
    table = nv.settle_all(metric, topology)
    hist = nv.histogram(table).counts
    assert {cost: hist.get(cost) for cost in counts} == counts
    _assert_witnesses_certify_and_weigh_their_costs(table)


def _assert_witnesses_certify_and_weigh_their_costs(table):
    witnesses = [(f, table.witness(f)) for f in table.functions()]
    assert nv.verify_witnesses(witnesses, topology=table.topology) == (nv.N_FUNCTIONS, None)
    weights = np.zeros(len(GATES) + 1, dtype=np.int64)
    weights[[GATES.index(g) for g in table.gate_list]] = [
        table.metric.weight(g) for g in table.gate_list
    ]
    paths = table.witness_paths()
    assert np.array_equal(weights[paths.gate_ids].sum(axis=1), table.costs)


# At least one of CNOT, V and V+ is free.  Without the reductions the search
# settles 4-5 M states, so each example takes 2-4 s and up to 400 MiB: keep
# them few.
@settings(max_examples=3, deadline=None)
@given(
    free=st.sampled_from(["CNOT", "V", "V+"]),
    w_not=st.integers(0, 2),
    w_cnot=st.integers(0, 3),
    w_v=st.integers(0, 3),
    w_vplus=st.integers(0, 3),
)
@example(free="V", w_not=0, w_cnot=2, w_v=0, w_vplus=1)
def test_reductions_keep_every_cost_under_zero_weight_gates(free, w_not, w_cnot, w_v, w_vplus):
    weights = {"NOT": w_not, "CNOT": w_cnot, "V": w_v, "V+": w_vplus, free: 0}
    metric = CostMetric(*(weights[kind] for kind in ("NOT", "CNOT", "V", "V+")))
    reduced = nv.settle_all(metric)
    unreduced = nv.settle_all(
        metric, options=SearchOptions(no_repeat_placement=False, settle_relabelings=False)
    )
    assert np.array_equal(reduced.costs, unreduced.costs)
    for table in (reduced, unreduced):
        _assert_witnesses_certify_and_weigh_their_costs(table)


ORACLE_REACH = 3


# Weights are drawn independently, so w_v != w_vplus and w_cnot > 2 w_v occur;
# the explicit example has both, plus a free NOT.
@settings(max_examples=2, deadline=None)
@given(
    w_not=st.integers(0, 2),
    w_cnot=st.integers(1, 3),
    w_v=st.integers(1, 3),
    w_vplus=st.integers(1, 3),
)
@example(w_not=0, w_cnot=3, w_v=1, w_vplus=2)
def test_engine_agrees_with_oracle_on_random_metrics(w_not, w_cnot, w_v, w_vplus):
    metric = CostMetric(w_not, w_cnot, w_v, w_vplus)
    table = nv.settle_all(metric)
    reached = {f: c for f, c in zip(table.functions(), table.costs.tolist()) if c <= ORACLE_REACH}
    assert reached == nv.exhaustive_oracle(metric, max_cost=ORACLE_REACH)


# --------------------------------------------------------------------------
# Budgets and guards

def test_cost_ceiling_raises():
    with pytest.raises(BudgetExceeded):
        nv.settle_all(nv.NCV_111, options=SearchOptions(max_cost=3))


def test_state_ceiling_raises():
    with pytest.raises(BudgetExceeded):
        nv.settle_all(nv.NCV_111, options=SearchOptions(max_states=1000))


def test_target_search_budgets_count_its_states(monkeypatch):
    """``max_states`` counts the states of the target search; ``max_cost``
    stops it at the first drain above it, and a target of that cost is
    found with the unbudgeted witness."""
    drained = []  # the cost of every drain, in order
    drains = search._Search.drains

    def spy(self):
        for drain in drains(self):
            drained.append(drain[0][0])
            yield drain

    monkeypatch.setattr(search._Search, "drains", spy)
    func, topology = TOF_FUNC, nv.PATH_TOPOLOGY
    cost, circuit = nv.synthesize_one(func, nv.NCV_111, topology)
    gates = enumerate_gates(topology, "NCV")
    _, _, states = search._run_search(
        gates, [(1, 0)] * len(gates), topology.line_symmetries(), SearchOptions(),
        target=function_rank(func),
    )
    assert cost == 9

    def budgeted(**budget):
        return nv.synthesize_one(func, nv.NCV_111, topology, SearchOptions(**budget))

    assert budgeted(max_states=states) == budgeted(max_cost=cost) == (cost, circuit)
    with pytest.raises(BudgetExceeded, match="state ceiling .* 1 function"):
        budgeted(max_states=states - 1)
    drained.clear()
    with pytest.raises(BudgetExceeded, match="cost ceiling 8 reached with 1 function"):
        budgeted(max_cost=cost - 1)
    assert max(drained[:-1]) <= cost - 1 < drained[-1]


BUDGETED_SETTLES = {
    "nct-gate-count": lambda options: nv.settle_all_nct(options=options),
    "ncv-111+ncv-012/full": lambda options: nv.settle_all(
        nv.NCV_111, options=options, secondary=nv.NCV_012
    ),
}


@pytest.mark.parametrize("name, budget, unsettled", [
    ("nct-gate-count", {"max_states": 6_828}, None),
    ("nct-gate-count", {"max_states": 6_827}, 577),
    ("nct-gate-count", {"max_states": 3_414}, 27_879),
    ("nct-gate-count", {"max_cost": 3}, 39_580),
    ("nct-gate-count", {"max_cost": 5}, 27_879),
    ("ncv-111+ncv-012/full", {"max_states": 379_232}, None),
    ("ncv-111+ncv-012/full", {"max_states": 379_231}, 784),
    ("ncv-111+ncv-012/full", {"max_cost": 5}, 38_941),
])
def test_secondary_weight_settles_refuse_budgets_with_the_pinned_messages(
    name, budget, unsettled
):
    """Budgets count the states and compare the primary costs of the
    (primary, secondary) drains, of a search with secondary weights and of
    the NCT gate-count search: a ``max_states`` equal to ``states_visited``
    (the WINDOW_TABLES pin) settles the table, and one state less, or a
    lower ceiling, names the functions left unsettled."""
    settle = BUDGETED_SETTLES[name]
    options = SearchOptions(**budget)
    if unsettled is None:
        assert settle(options).states_visited == WINDOW_TABLES[name][1] == budget["max_states"]
        return
    ((what, ceiling),) = budget.items()
    word = {"max_states": "state", "max_cost": "cost"}[what]
    with pytest.raises(BudgetExceeded) as refused:
        settle(options)
    assert str(refused.value) == (
        f"{word} ceiling {ceiling} reached with {unsettled} function(s) unsettled"
    )


# States the target search settles for the five landmarks under ncv-012,
# whose NOT is free and whose group holds conjugation and the input masks.
# A key outside the target's ball is at least ``reach`` from the target; a
# bound one or three units larger keeps every witness tried but drops states
# the search must settle, and shows as fewer states (718 full, 2,785 path).
TARGET_SEARCH_STATES = {"full": 760, "path": 3_028}


@pytest.mark.parametrize("name", sorted(TARGET_SEARCH_STATES))
def test_target_search_settles_the_pinned_states(name):
    topology = nv.model.TOPOLOGIES[name]
    gates = enumerate_gates(topology, "NCV")
    weights = [(nv.NCV_012.weight(g), 0) for g in gates]
    states = sum(
        search._run_search(
            gates, weights, topology.line_symmetries(), SearchOptions(),
            target=function_rank(func),
        )[2]
        for func in LANDMARK_FUNCS
    )
    assert states == TARGET_SEARCH_STATES[name]


def test_gate_list_without_inverses_rejected():
    # The settled-state window rests on every gate's inverse being a gate.
    gates = [g for g in enumerate_gates(nv.FULL_TOPOLOGY, "NCV") if g.kind != "V+"]
    with pytest.raises(ValueError, match="inverse"):
        search._run_search(
            gates, [(1, 0)] * len(gates), nv.FULL_TOPOLOGY.line_symmetries(),
            SearchOptions(),
        )


def _refused_plans():
    """(gates, weights, message) per kind of search that ``_search_plan``
    refuses, all on the full topology."""
    gates = enumerate_gates(nv.FULL_TOPOLOGY, "NCV")
    unit = [(1, 0)] * len(gates)
    return {
        "weight below (0, 0)": (gates, [(0, -1), *unit[1:]], "below"),
        "no inverse": ([g for g in gates if g.kind != "V+"], unit, "inverse"),
        "not invariant": (gates, [(2, 0), *unit[1:]], "invariant"),
    }


@pytest.mark.parametrize("case", ["weight below (0, 0)", "no inverse", "not invariant"])
def test_a_refused_plan_is_refused_again(case):
    """A plan that fails to build is not cached: an identical second call
    raises the same ValueError as the first."""
    gates, weights, message = _refused_plans()[case]
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            search._run_search(
                gates, weights, nv.FULL_TOPOLOGY.line_symmetries(), SearchOptions()
            )


def test_budgets_are_per_call():
    """A plan is shared by every search of its key and holds no budget:
    ``synthesize_one`` under ``max_states`` and under ``max_cost`` raises
    the same message before and after an unbounded call of that metric,
    and searches under three distinct budgets add no plan."""
    metric, func = CostMetric(1, 3, 2, 2), PERES_FUNC
    search._search_plan.cache_clear()

    def refusals():
        messages = []
        for options in (SearchOptions(max_states=40), SearchOptions(max_cost=3)):
            with pytest.raises(BudgetExceeded) as refused:
                nv.synthesize_one(func, metric, options=options)
            messages.append(str(refused.value))
        return messages

    before = refusals()
    cost, circuit = nv.synthesize_one(func, metric)
    assert refusals() == before
    plans = search._search_plan.cache_info().currsize
    for options in (
        SearchOptions(max_cost=cost), SearchOptions(max_states=10 ** 6),
        SearchOptions(max_cost=cost + 1, max_states=10 ** 5),
    ):
        assert nv.synthesize_one(func, metric, options=options) == (cost, circuit)
    assert search._search_plan.cache_info().currsize == plans


def _arrays(part):
    """Every array in ``part`` and the tuples nested in it."""
    if isinstance(part, np.ndarray):
        yield part
    elif isinstance(part, tuple):
        for item in part:
            yield from _arrays(item)


def test_plan_arrays_are_read_only():
    """Every array of a plan, its expansion, its orbit tables and its root's
    batches is shared by the searches of its key, so none can be written."""
    gates = enumerate_gates(nv.FULL_TOPOLOGY, "NCV")
    plan = search._search_plan(
        gates, tuple((nv.NCV_012.weight(g), 0) for g in gates),
        nv.FULL_TOPOLOGY.line_symmetries(), True, True,
    )
    assert plan.orbits.masks and plan.orbits.conj and plan.root_batches
    arrays = list(_arrays(plan))
    assert len(arrays) == 21 + 4 * len(plan.root_batches)
    for arr in arrays:
        assert arr.size
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


# states_visited and the SHA-256 of write_table_jsonl and the secondary
# costs, for searches that stress the settled-state window: ncv-012 has a
# zero-weight NOT (several drains per bucket) and input masks in its group,
# CostMetric(0,3,1,2) the masks without conjugation, ncv-155 a span of 5,
# custom:1,3,1 switches reduction (1) off, and the NCT gate count runs the
# engine on the NCT library.  ncv-111 with an ncv-012 secondary spreads each
# primary cost over several (primary, secondary) buckets, some of them
# drained on split key ranges, and ncv-012 with an ncv-111 secondary has a
# NOT of weight (0, 1), whose candidates stay at the primary cost being
# drained.  A window too narrow to hold every settled state a candidate can
# meet settles some states again, which shows as more states.
WINDOW_TABLES = {  # name: (session fixture or settle, states, digest)
    "ncv-111/full": ("ncv111_full", 389_026,
                     "29fbd21aa8a6767d16634c9ec555ee9dd471ae11ea2a71b7b5c00e6c901b6664"),
    "ncv-111/path": ("ncv111_path", 972_976,
                     "db6c0c91a25816408c368e99981e66e0af97648bedf03909efeabd1ee0bbfd62"),
    "ncv-012/full": ("ncv012_full", 48_618,
                     "275fbb3e586755f7cc72a9a50b953b039421ba1af2a8d3842d09043ab92ef667"),
    "ncv-012/path": ("ncv012_path", 118_696,
                     "3b1ac4238a54907a91853ae1e58bca9c2339418f3956fc95aced2f66a40cbb9b"),
    "CostMetric(0,3,1,2)/full": (
        lambda: nv.settle_all(CostMetric(0, 3, 1, 2)), 101_390,
        "fb42b1b15c5349f2d25b1607df63bd16d43b3de55b4f3f7e2bdd25c77368a4cc",
    ),
    "ncv-155/path": (lambda: nv.settle_all(nv.NCV_155, nv.PATH_TOPOLOGY), 966_568,
                     "c3f970c548463b76c57dfc57c5b9f751985ec0d4af0516f5e020c76afcf4558e"),
    "custom:1,3,1/full": (lambda: nv.settle_all(CostMetric.parse("custom:1,3,1")), 407_284,
                          "56edff948d1c34c4bf11f7a45619ca88fc5e63d8c1413b86f9958a5c3a51323a"),
    "ncv-111+ncv-012/full": ("ncv111_lex012", 379_232,
                             "f1997c3b93310c924b20f33768e1be42c619009c6b2c7c3237aea36fb5729ebf"),
    "ncv-012+ncv-111/full": (
        lambda: nv.settle_all(nv.NCV_012, secondary=nv.NCV_111), 381_364,
        "d0a5f001cd563bf429351d7d1cc69b7d0ea801d0baed0d7fbb81e4bb644620f4",
    ),
    "nct-gate-count": ("nct_gc", 6_828,
                       "77de42cbd30a313308e808c3f4caf5dd1cec6e1500ddc92119f16d1c301e4c26"),
}


@pytest.mark.parametrize("name", sorted(WINDOW_TABLES))
def test_window_settles_each_state_once(name, request):
    settle, states, digest = WINDOW_TABLES[name]
    table = request.getfixturevalue(settle) if isinstance(settle, str) else settle()
    assert table_pin(table) == (states, digest)


_KEY_SETS = st.sets(st.integers(0, 2 ** 64 - 1), max_size=40)


@settings(max_examples=100, deadline=None)
@given(_KEY_SETS, _KEY_SETS)
@example(set(), {5, 0, 2 ** 64 - 1})
@example({7, 3}, set())
def test_union_merges_two_sorted_runs(keys, new_keys):
    keys, new_keys = (np.array(sorted(s), dtype=np.uint64) for s in (keys, new_keys - keys))
    costs = np.arange(1, len(keys) + 1)
    union, union_costs = search._merged(keys, costs, new_keys, 0)
    assert union.dtype == np.uint64 and np.array_equal(union, np.union1d(keys, new_keys))
    old = union_costs != 0
    assert np.array_equal(old, np.isin(union, keys)) and np.array_equal(union_costs[old], costs)


def test_disconnected_topology_rejected():
    lonely = nv.model.Topology(frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        nv.settle_all(nv.NCV_111, lonely)


def test_unequal_v_weights_stay_optimal():
    # V+ cheaper than V: interchanging V and V+ changes costs, so the orbit
    # group must leave conjugation out; the vswapped Toffoli realization
    # costs 6.
    metric = CostMetric(1, 1, 2, 1)
    cost, circuit = nv.synthesize_one(TOF_FUNC, metric)
    plain = nv.synthesize_one(
        TOF_FUNC, metric, options=SearchOptions(settle_relabelings=False)
    )
    assert cost == plain[0] == 6
    assert nv.circuit_cost(circuit, metric) == cost
    assert nv.check_realizes(circuit, TOF_FUNC)
    # V+ dearer than V, over the whole table: conjugation stays out, and
    # the orbit search equals the search without any symmetry.
    metric = CostMetric(1, 1, 1, 2)
    table = nv.settle_all(metric)
    plain = nv.settle_all(metric, options=SearchOptions(settle_relabelings=False))
    assert np.array_equal(table.costs, plain.costs)
    # Without a group the target search conjugates its ball's images.
    rng = np.random.default_rng(17)
    randoms = [tuple(rng.permutation(8).tolist()) for _ in range(3)]
    for func in (*LANDMARK_FUNCS, *randoms):
        one = nv.synthesize_one(func, metric, options=SearchOptions(settle_relabelings=False))
        assert one == (plain.cost_of(func), plain.witness(func)), func


REDUCTION_1_SETTLES = {
    "nct-gate-count": lambda options: nv.settle_all_nct(options=options),
    "ncv-012/path": lambda options: nv.settle_all(nv.NCV_012, nv.PATH_TOPOLOGY, options),
    # Input masks without conjugation; under CostMetric(0,3,1,2) too, but
    # there reduction (1) is off, as two V gates cost less than the CNOT.
    "CostMetric(0,2,1,2)/full": lambda options: nv.settle_all(CostMetric(0, 2, 1, 2),
                                                              options=options),
}


@pytest.mark.parametrize("name", sorted(REDUCTION_1_SETTLES))
def test_repeat_placement_reduction_changes_no_witness(name, monkeypatch):
    """Reduction (1) skips, at each state, the placements of every gate that
    produced it at its settled cost: each such candidate is met no later
    and at no more cost from the producing gate's parent, so no skipped
    candidate wins.  Witnesses, secondary costs and states visited are
    those of the search without the reduction, which makes more
    candidates."""
    made = []  # candidates per ``_candidates`` call
    candidates = search._candidates

    def spy(*args):
        out = candidates(*args)
        made.append(len(out[0]))
        return out

    monkeypatch.setattr(search, "_candidates", spy)
    settle = REDUCTION_1_SETTLES[name]
    reduced = settle(SearchOptions())
    n_reduced = sum(made)
    plain = settle(SearchOptions(no_repeat_placement=False))
    assert n_reduced < sum(made) - n_reduced
    for got, want in zip(reduced.witness_paths(), plain.witness_paths()):
        assert np.array_equal(got, want)
    assert np.array_equal(reduced.secondary_array(), plain.secondary_array())
    assert reduced.states_visited == plain.states_visited


def test_repeat_placement_reduction_yields_to_cheap_v_pairs():
    # V * V = CNOT on one placement: under custom:1,3,1 the pair (cost 2)
    # beats the CNOT (cost 3), so never repeating a placement would miss it.
    metric = CostMetric(1, 3, 1, 1)
    cnot = nv.realized_function(nv.Circuit((nv.CNOT(0, 2),)))
    cost, circuit = nv.synthesize_one(cnot, metric)
    assert cost == nv.circuit_cost(circuit, metric) == 2
    assert nv.check_realizes(circuit, cnot)


def test_weights_must_be_invariant_under_line_symmetries():
    # NOT a weighs 2, NOT b and NOT c weigh 1: relabeling a and b changes cost.
    gates = enumerate_gates(nv.FULL_TOPOLOGY, "NCT")
    weights = [(2 if g == nv.NOT(0) else 1, 0) for g in gates]
    symmetries = nv.FULL_TOPOLOGY.line_symmetries()
    with pytest.raises(ValueError, match="invariant"):
        search._search_plan(tuple(gates), tuple(weights), symmetries, True, True)
    paths, _, _ = search._run_search(
        gates, weights, symmetries, SearchOptions(settle_relabelings=False)
    )
    table = nv.SynthesisTable(None, nv.FULL_TOPOLOGY, "NCT", gates, paths, np.zeros_like(paths.cost))
    weight_of = {g: w for g, (w, _) in zip(gates, weights)}
    assert table.cost_of((4, 5, 6, 7, 0, 1, 2, 3)) == 2   # NOT a
    assert table.cost_of((2, 3, 0, 1, 6, 7, 4, 5)) == 1   # NOT b
    for func in table.functions():
        assert sum(weight_of[g] for g in table.witness(func)) == table.cost_of(func)


@pytest.mark.parametrize("weight", [(0, -1), (-1, 5), (1, -1)])
def test_weights_below_zero_pair_rejected(weight):
    """Every part of every weight is >= 0: (1, -1) lies above (0, 0) but
    has a negative secondary part."""
    gates = enumerate_gates(nv.FULL_TOPOLOGY, "NCT")
    with pytest.raises(ValueError, match="below 0"):
        search._search_plan(
            gates, (weight,) * len(gates), nv.FULL_TOPOLOGY.line_symmetries(), True, True
        )


def test_ncv_settle_without_a_metric_is_a_value_error():
    with pytest.raises(ValueError, match="metric is None"):
        nv.settle_all(None)


# --------------------------------------------------------------------------
# Orbit canonicalization

def _relabeled_state(state, perm):
    """Scalar reference: the level of row i, line l moves to row
    row_permutation(perm)[i], line perm[l]."""
    rows = row_permutation(perm)
    out = [[0] * 3 for _ in range(8)]
    for i, row in enumerate(state.rows):
        for line, level in enumerate(row):
            out[rows[i]][perm[line]] = level
    return CircuitState(tuple(map(tuple, out)))


def _conjugated_state(state):
    """Scalar reference: every level v becomes -v mod 4."""
    return CircuitState(tuple(tuple(-v % 4 for v in row) for row in state.rows))


def _masked_state(state, mask):
    """Scalar reference: row i moves from row i ^ mask, the state after the
    input NOT layer of ``mask``."""
    return CircuitState(tuple(state.rows[i ^ mask] for i in range(8)))


def _sigma_image(state, sigma):
    """The image of a state under sigma: conjugation for sigma % 12 >= 6,
    then the line map LINE_PERMUTATIONS[sigma % 6], then the mask sigma // 12."""
    if sigma % 12 >= len(LINE_PERMUTATIONS):
        state = _conjugated_state(state)
    state = _relabeled_state(state, LINE_PERMUTATIONS[sigma % len(LINE_PERMUTATIONS)])
    return _masked_state(state, sigma // 12)


def _row_class(row):
    """4 x the row's entries not at level 0 + its entries not at level 2."""
    return 4 * sum(v != 0 for v in row) + sum(v != 2 for v in row)


@pytest.mark.parametrize("topology", [nv.FULL_TOPOLOGY, nv.PATH_TOPOLOGY])
def test_canonical_key_is_shared_by_every_image(topology):
    """Every image of a reachable state has one canonical key, which the
    returned sigma maps the image to, in the loop and the stacked form:
    without masks the least image, with them the least image whose row 7
    holds a row of least class."""
    rng = np.random.default_rng(11)
    symmetries = topology.line_symmetries()
    for masks in (False, True):
        orbits = search._orbit_tables(enumerate_gates(topology, "NCV"), symmetries, True, masks)
        group = [
            (perm, conj, mask)
            for mask in (range(8) if masks else [0])
            for conj in (False, True) for perm in symmetries
        ]
        for n_gates in list(range(12)) * 4:
            circuit = random_legal_circuit(rng, n_gates, topology)
            state = apply_circuit(CircuitState.identity(), circuit)
            images = []
            for perm, conj, mask in group:
                image = _masked_state(
                    _relabeled_state(_conjugated_state(state) if conj else state, perm), mask
                )
                nots = tuple(nv.NOT(line) for line in range(3) if mask >> (2 - line) & 1)
                moved = nv.relabel_circuit(nv.vswap(circuit) if conj else circuit, perm, topology)
                moved = nv.Circuit(nots + moved.gates)
                assert apply_circuit(CircuitState.identity(), moved) == image
                images.append(image)
            least = min(map(_row_class, state.rows))
            expected = min(
                i.pack() for i in images if not masks or _row_class(i.rows[7]) == least
            )
            keys = np.array([image.pack() for image in images], dtype=np.uint64)
            for form in KERNEL_FORMS:
                with kernel_form(form):
                    canonical, sigma = search._canonical(keys, orbits)
                assert canonical.tolist() == [expected] * len(keys), form
                for key, sid in zip(keys.tolist(), sigma.tolist()):
                    assert LINE_PERMUTATIONS[sid % len(LINE_PERMUTATIONS)] in symmetries
                    assert _sigma_image(CircuitState.unpack(key), sid).pack() == expected


@functools.cache
def _reachable_keys(topology, library):
    """(parents, candidates): the keys a unit-weight search settles in its
    first drains (at least 3,000 where the library reaches that many), and
    the raw candidates ``_candidates`` makes of them, canonical or not."""
    gates = enumerate_gates(topology, library)
    # Unit weights: conjugation where the library has V gates, no masks.
    plan = search._search_plan(gates, ((1, 0),) * len(gates), topology.line_symmetries(),
                               True, True)
    parents = []
    with search._Pool() as pool:
        for _, keys, _ in search._Search(plan, pool).drains():
            parents.append(keys)
            if sum(map(len, parents)) >= 3_000:
                break
    parents = np.concatenate(parents)
    n = len(parents)
    raw = search._candidates(
        plan.expansion, parents, np.zeros(n, np.int32), np.zeros(n, np.uint16), False
    )
    return parents, raw[0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(0, 3_000),
    topology=st.sampled_from([nv.FULL_TOPOLOGY, nv.PATH_TOPOLOGY]),
    library=st.sampled_from(["NCV", "NCT"]),
    conj=st.booleans(),
    masks=st.booleans(),
    no_repeat=st.booleans(),
)
@example(seed=0, n=0, topology=nv.FULL_TOPOLOGY, library="NCV", conj=True, masks=True,
         no_repeat=True)
@example(seed=1, n=1_025, topology=nv.FULL_TOPOLOGY, library="NCV", conj=True, masks=True,
         no_repeat=True)
@example(seed=2, n=129, topology=nv.PATH_TOPOLOGY, library="NCV", conj=False, masks=False,
         no_repeat=False)
def test_loop_and_stacked_kernel_forms_agree(seed, n, topology, library, conj, masks, no_repeat):
    """On reachable keys, the loop and the stacked forms, and the form a
    search picks by size, return the same candidates, parents and counts,
    and the same canonical keys and sigmas."""
    parents, candidates = _reachable_keys(topology, library)
    rng = np.random.default_rng(seed)
    gates = enumerate_gates(topology, library)
    plan = search._expansion(gates, tuple((int(w), 0) for w in rng.integers(1, 3, len(gates))))
    keys = parents[rng.integers(len(parents), size=n)]
    gidx = np.arange(n, dtype=np.int32) + 7
    placed = rng.integers(0, 1 << len(plan.placements), size=n).astype(np.uint16)
    orbits = search._orbit_tables(gates, topology.line_symmetries(), conj, masks)
    raw = candidates[rng.integers(len(candidates), size=n)]
    out = {}
    for form in KERNEL_FORMS:
        with kernel_form(form):
            made = search._candidates(plan, keys, gidx, placed, no_repeat)
            out[form] = (*made[:2], *search._canonical(raw, orbits)), made[2]
    want, want_counts = out["loop"]
    for form, (got, counts) in out.items():
        assert counts == want_counts, form
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), form


def test_sigma_ids_compose_like_their_images():
    """compose[a, b] is the sigma of sigma a after sigma b, masks included."""
    gates = enumerate_gates(nv.FULL_TOPOLOGY, "NCV")
    orbits = search._orbit_tables(gates, nv.FULL_TOPOLOGY.line_symmetries(), True, True)
    state = apply_circuit(CircuitState.identity(), nv.Circuit((nv.V(0, 1), nv.CNOT(2, 0))))
    for a in range(96):
        for b in range(0, 96, 5):
            after = _sigma_image(_sigma_image(state, b), a)
            assert _sigma_image(state, int(orbits.compose[a, b])) == after


# The two facts the target search's ball rests on, on the object model.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_gates=st.integers(0, 8),
    path=st.booleans(),
    target=st.permutations(range(8)),
)
def test_a_circuit_moves_a_targets_rows_and_its_vswap_conjugates(seed, n_gates, path, target):
    """Run from the target T's Boolean state, a circuit reaches the state it
    reaches from the identity with its rows moved: row i is that state's
    row T(i).  Its ``vswap`` reaches the conjugate of that state."""
    topology = nv.PATH_TOPOLOGY if path else nv.FULL_TOPOLOGY
    circuit = random_legal_circuit(np.random.default_rng(seed), n_gates, topology)
    reached = apply_circuit(CircuitState.identity(), circuit)
    moved = apply_circuit(state_of_permutation(target), circuit)
    assert moved.rows == tuple(reached.rows[t] for t in target)
    swapped = apply_circuit(CircuitState.identity(), nv.vswap(circuit))
    assert swapped == _conjugated_state(reached)


# --------------------------------------------------------------------------
# Row-pair decode tables

def _reference_outputs(keys):
    """Per-row reference decode: each row's Boolean output, 4 x line a's
    Boolean bit + 2 x line b's + line c's, as a uint64 column per row."""
    one = np.uint64(1)
    return [
        ((keys >> np.uint64(bit_offset(row, 0) + 1)) & one) * np.uint64(4)
        + ((keys >> np.uint64(bit_offset(row, 1) + 1)) & one) * np.uint64(2)
        + ((keys >> np.uint64(bit_offset(row, 2) + 1)) & one)
        for row in range(8)
    ]


def _all_boolean_keys():
    """The Boolean state of every function, in rank order."""
    outputs = rank_tables().outputs.astype(np.uint64)
    keys = np.zeros(nv.N_FUNCTIONS, dtype=np.uint64)
    for row in range(8):
        for line in range(3):
            bit = (outputs[:, row] >> np.uint64(2 - line)) & np.uint64(1)
            keys |= bit << np.uint64(bit_offset(row, line) + 1)
    return keys


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, (1 << 48) - 1), min_size=1, max_size=300))
@example([0, (1 << 48) - 1, CircuitState.identity().pack()])
def test_row_pair_decode_matches_per_row_formula(values):
    keys = np.array(values, dtype=np.uint64)
    outputs = _reference_outputs(keys)
    occupancy = np.zeros(len(keys), dtype=np.uint64)
    code = np.zeros(len(keys), dtype=np.uint64)
    for out in outputs:
        occupancy |= np.uint64(1) << out
        code = (code << np.uint64(8)) | out
    assert search._occupancy(keys).tolist() == occupancy.tolist()
    assert search._output_codes(keys).tolist() == code.tolist()
    classes = search._row_pair_lookup(keys, search._row_pair_tables()[2]).view(np.uint8)
    rows = [CircuitState.unpack(key).rows for key in values]
    assert classes.tolist() == [[_row_class(row) for row in key_rows] for key_rows in rows]


def test_input_masked_ranks_are_the_masked_functions():
    """Entry (r, m) is the rank of i -> f(i ^ m) for the function f of rank r."""
    table = search._input_masked()
    ranks = np.random.default_rng(5).choice(nv.N_FUNCTIONS, 2_000, replace=False)
    for rank in ranks.tolist():
        func = rank_tables().function(rank)
        expected = [function_rank([func[i ^ m] for i in range(8)]) for m in range(8)]
        assert table[rank].tolist() == expected


def test_boolean_states_of_every_function_decode_to_their_ranks():
    keys = _all_boolean_keys()
    search._assert_projection_permutation(keys)
    assert np.array_equal(search._ranks_of(keys), np.arange(nv.N_FUNCTIONS))


def test_projection_check_rejects_two_rows_with_one_output():
    """Row 6 repeats row 3's output once its bits are overwritten with row
    3's; a quantum flag elsewhere does not hide that."""
    keys = _all_boolean_keys()[[0, 12345, 40319]]
    row3 = (keys >> np.uint64(bit_offset(3, 0))) & np.uint64(0x3F)
    clear6 = ~(np.uint64(0x3F) << np.uint64(bit_offset(6, 0)))
    bad = (keys & clear6) | (row3 << np.uint64(bit_offset(6, 0)))
    flagged = bad | np.uint64(1)  # a quantum flag on row 0, line a
    for key in [*bad.tolist(), *flagged.tolist()]:
        with pytest.raises(InternalError, match="permutation"):
            search._assert_projection_permutation(np.array([*keys.tolist(), key], dtype=np.uint64))


# --------------------------------------------------------------------------
# Reconstruction

def test_reconstruct_root_and_single_gate(ncv111_full):
    """The witnesses a table reconstructs from its gate-id rows: none for
    the identity, and NOT a for the function NOT a realizes."""
    assert len(ncv111_full.witness(tuple(range(8)))) == 0
    circuit = ncv111_full.witness((4, 5, 6, 7, 0, 1, 2, 3))
    assert circuit == nv.Circuit((nv.NOT(0),))


def test_reconstruct_settled_state_verifies(ncv111_full):
    func = (3, 0, 1, 2, 7, 4, 5, 6)
    assert nv.check_realizes(ncv111_full.witness(func), func)


# --------------------------------------------------------------------------
# Lexicographic (primary, secondary) costs

def test_secondary_metric_costs_each_witness(ncv111_lex012, ncv111_full):
    table = ncv111_lex012
    assert len(table.costs) == nv.N_FUNCTIONS and table.metric == nv.NCV_111
    for func in table.functions():
        witness = table.witness(func)
        assert nv.circuit_cost(witness, nv.NCV_111) == table.cost_of(func)
        assert nv.circuit_cost(witness, nv.NCV_012) == table.secondary_of(func)
    assert table.secondary_array().tolist() == [table.secondary_of(f) for f in table.functions()]
    assert not ncv111_full.secondary_array().any()


# --------------------------------------------------------------------------
# Parallel expansion

def _table_arrays(table):
    return (*table.witness_paths(), table.secondary_array())


def _same_table(a, b):
    return a.states_visited == b.states_visited and all(
        map(np.array_equal, _table_arrays(a), _table_arrays(b))
    )


def _thread_counts(monkeypatch):
    """Record ``threading.active_count()`` at every canonicalization, on
    whichever thread runs it."""
    counts = []
    canonical = search._canonical

    def counted(keys, orbits):
        counts.append(threading.active_count())
        return canonical(keys, orbits)

    monkeypatch.setattr(search, "_canonical", counted)
    return counts


def _drain_ranges(monkeypatch):
    """Record the number of key ranges of every drain."""
    ranges = []
    pool_map = search._Pool.map

    def spy(self, fn, items):
        if fn.__name__ == "settle":
            ranges.append(len(items))
        return pool_map(self, fn, items)

    monkeypatch.setattr(search._Pool, "map", spy)
    return ranges


SPLIT_SETTLES = {  # WINDOW_TABLES name: settle
    "ncv-012/full": lambda: nv.settle_all(nv.NCV_012),
    "ncv-111/path": lambda: nv.settle_all(nv.NCV_111, nv.PATH_TOPOLOGY),
    "custom:1,3,1/full": lambda: nv.settle_all(CostMetric.parse("custom:1,3,1")),
    "nct-gate-count": lambda: nv.settle_all_nct(),
}


@pytest.mark.parametrize("name", sorted(SPLIT_SETTLES))
def test_small_chunks_on_more_threads_than_cores_settle_the_same_table(name, monkeypatch):
    """Chunks of 64 parents on three worker threads, and drains of more
    than 64 candidates cut into four key ranges, switching threads often: a
    batch lost or merged out of chunk order, or a range's winner, key or
    window slice lost, would change a witness or ``states_visited``.
    ncv-012's zero-weight NOT re-enters the bucket being drained, and
    custom:1,3,1's weights of 1 and 3 fill a bucket from several drains, so
    that its older batches are probed again.  The NCT gate count runs the
    split drains on the NCT library, whose states are all Boolean."""
    before = threading.active_count()
    monkeypatch.setattr(search, "_CHUNK", 64)
    monkeypatch.setattr(search, "_workers", lambda: 3)
    counts = _thread_counts(monkeypatch)
    ranges = _drain_ranges(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        table = SPLIT_SETTLES[name]()
    finally:
        sys.setswitchinterval(interval)
    assert table_pin(table) == WINDOW_TABLES[name][1:]
    assert max(counts) > before and threading.active_count() == before
    assert max(ranges) == 4


def test_small_chunks_synthesize_the_same_circuits(monkeypatch):
    rng = np.random.default_rng(2011)
    funcs = [tuple(rng.permutation(8).tolist()) for _ in range(6)]
    default = [nv.synthesize_one(f, nv.NCV_111) for f in funcs]
    monkeypatch.setattr(search, "_CHUNK", 64)
    assert [nv.synthesize_one(f, nv.NCV_111) for f in funcs] == default


def test_one_cpu_starts_no_thread(monkeypatch, ncv111_full):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert search._workers() == 0
    before = threading.active_count()
    counts = _thread_counts(monkeypatch)
    table = nv.settle_all(nv.NCV_111)
    assert set(counts) == {before}
    assert _same_table(table, ncv111_full)


def test_many_cpus_start_one_worker(monkeypatch):
    """One worker is the only count measured; more would each add a chunk's
    temporaries and a malloc arena to peak memory."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert search._workers() == 1


def _settle_nct_in_child(expected):
    """Exit 0 iff a split NCT settle in this process equals ``expected``."""
    sys.exit(0 if all(map(np.array_equal, _table_arrays(nv.settle_all_nct()), expected)) else 1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_forked_child_runs_a_split_search(monkeypatch):
    """The expansion threads end with their search, so a child forked after
    a split search can split its own."""
    monkeypatch.setattr(search, "_CHUNK", 64)
    monkeypatch.setattr(search, "_workers", lambda: 1)
    expected = _table_arrays(nv.settle_all_nct())
    child = multiprocessing.get_context("fork").Process(
        target=_settle_nct_in_child, args=(expected,)
    )
    child.start()
    child.join(timeout=120)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's search did not return")
    assert child.exitcode == 0
