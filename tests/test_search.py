"""Search engine behavior: landmarks, oracles, budgets, determinism."""

import hashlib
import io as stdio
import multiprocessing
import os
import sys
import threading
from collections.abc import Mapping

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
    UnknownState,
)
from ncvsynth import io as nio
from ncvsynth import search
from ncvsynth.model import (
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

TOF_FUNC = (0, 1, 2, 3, 4, 5, 7, 6)
PERES_FUNC = (0, 1, 2, 3, 6, 7, 5, 4)


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


def _corrupt_padding(ids, lengths):
    ids[9, lengths[9]] = 0


@pytest.mark.parametrize("corrupt", [
    _corrupt_lengths_past_width, _corrupt_negative_length,
    _corrupt_gate_id_past_list, _corrupt_padding,
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
    costs = ncv111_full.costs
    assert isinstance(costs, Mapping) and not hasattr(costs, "__setitem__")
    assert len(costs) == nv.N_FUNCTIONS
    funcs = list(costs)
    assert funcs == sorted(funcs) == list(ncv111_full.functions())
    assert list(costs.values()) == ncv111_full.cost_array().tolist()
    assert list(costs.items()) == list(zip(funcs, costs.values()))
    assert costs[TOF_FUNC] == ncv111_full.cost_of(TOF_FUNC) == 5
    assert TOF_FUNC in costs and (0, 0, 1, 2, 3, 4, 5, 6) not in costs
    assert costs.get((0, 1)) is None
    assert costs == dict(costs.items())


@pytest.mark.parametrize("name", ["nct_gc", "ncv111_full", "ncv111_path"])
def test_witness_paths_row_by_row_equal_witness(name, request):
    table = request.getfixturevalue(name)
    paths = table.witness_paths()
    functions = list(table.functions())
    assert functions == list(map(tuple, rank_tables().outputs.tolist()))
    assert [function_rank(f) for f in functions] == list(range(nv.N_FUNCTIONS))
    assert all(len(a) == nv.N_FUNCTIONS for a in (*paths, table.secondary_array()))
    assert paths.cost.tolist() == [table.cost_of(f) for f in functions]
    assert np.array_equal(paths.cost, table.cost_array())
    assert paths.gate_ids.dtype == np.uint8
    gates = table.gate_list
    for func, ids, length in zip(functions, paths.gate_ids.tolist(), paths.lengths.tolist()):
        assert set(ids[length:]) <= {len(gates)}
        # witness() skips the per-gate library check; the result must be
        # the circuit the checked constructor builds.
        witness = table.witness(func)
        checked = nv.Circuit(tuple(gates[i] for i in ids[:length]), table.library)
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
    """Row sigma of the (sigma x gate id) map is relabel_circuit by
    LINE_PERMUTATIONS[sigma % 6], after vswap for sigma >= 6; perms outside
    the topology's symmetries map some gate to 255."""
    gates = enumerate_gates(topology, library)
    relabel = search._relabel_table(gates)
    assert relabel.shape[0] == 2 * len(LINE_PERMUTATIONS)
    plain = nv.Circuit(gates, library)
    for sid, ids in enumerate(relabel[:, :len(gates)].tolist()):
        perm = LINE_PERMUTATIONS[sid % len(LINE_PERMUTATIONS)]
        source = nv.vswap(plain) if sid >= len(LINE_PERMUTATIONS) else plain
        if perm in topology.line_symmetries():
            mapped = tuple(gates[i] for i in ids)
            assert mapped == nv.relabel_circuit(source, perm, topology).gates
        else:
            assert 255 in ids
            with pytest.raises(nv.TopologyViolation):
                nv.relabel_circuit(source, perm, topology)


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
    reached = {f: c for f, c in table.costs.items() if c <= ORACLE_REACH}
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


# States the target search settles for the five landmarks under ncv-012,
# whose NOT is free and whose group holds conjugation.  A key outside the
# target's ball is at least ``reach`` from the target; a bound one or three
# units larger keeps every witness tried but drops states the search must
# settle, and shows as fewer states.
TARGET_SEARCH_STATES = {"full": 5_346, "path": 21_942}


@pytest.mark.parametrize("name", sorted(TARGET_SEARCH_STATES))
def test_target_search_settles_the_pinned_states(name):
    topology = nv.model.TOPOLOGIES[name]
    gates = enumerate_gates(topology, "NCV")
    weights = [(nv.NCV_012.weight(g), 0) for g in gates]
    options = search._effective_options(SearchOptions(), gates, weights)
    states = sum(
        search._run_search(
            gates, weights, topology.line_symmetries(), options, target=function_rank(func)
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


# states_visited and the SHA-256 of write_table_jsonl, for searches that
# stress the settled-state window: ncv-012 has a zero-weight NOT (several
# drains per bucket), ncv-155 a span of 5, custom:1,3,1 switches reduction
# (1) off, and NCT lex-max pairs carry negative secondaries.  A window too
# narrow to hold every settled state a candidate can meet settles some
# states again, which shows as more states.
WINDOW_TABLES = {  # name: (session fixture or settle, states, digest)
    "ncv-111/full": ("ncv111_full", 389_026,
                     "14ceb06726d8d6fec3b2169d78c6cb92ebdee028cd59716c595daf6fcadc3902"),
    "ncv-111/path": ("ncv111_path", 972_976,
                     "4fc99703a221aa32a7d9ad022211a159dea07a2884e616ed0445bc149481365f"),
    "ncv-012/full": ("ncv012_full", 382_588,
                     "e311b5dd639337232e92602c10f88ea6290153a9f2d622be0d99bc72dfaae624"),
    "ncv-155/path": (lambda: nv.settle_all(nv.NCV_155, nv.PATH_TOPOLOGY), 966_568,
                     "3980687a208efa5b2fa10755e2a41549407d9267c3d04387bfa9f9a0766c778e"),
    "custom:1,3,1/full": (lambda: nv.settle_all(CostMetric.parse("custom:1,3,1")), 407_284,
                          "fb1e2ae906d18867c460aeb3a3aaffdf7112ac287bba4bf6ec7e6f0868fe7d6e"),
    "nct-lex-min/ncv-012": (lambda: nv.settle_all_nct("lex-min", nv.NCV_012), 6_828,
                            "b013b30a3bf1c6bc7959a18891284ee4510ab7d347eefec2f9659da681ebca1a"),
    "nct-lex-max/custom:1,300,300": (
        lambda: nv.settle_all_nct("lex-max", CostMetric.parse("custom:1,300,300")), 6_828,
        "bcfe45a9f8adcff03754172b22a11349508eb8fdb33e141537133356cb09fa5c",
    ),
}


@pytest.mark.parametrize("name", sorted(WINDOW_TABLES))
def test_window_settles_each_state_once(name, request):
    settle, states, digest = WINDOW_TABLES[name]
    table = request.getfixturevalue(settle) if isinstance(settle, str) else settle()
    buf = stdio.StringIO()
    nio.write_table_jsonl(table, buf)
    assert table.states_visited == states
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


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
    assert np.array_equal(table.cost_array(), plain.cost_array())
    # Without a group the target search conjugates its ball's images.
    rng = np.random.default_rng(17)
    randoms = [tuple(rng.permutation(8).tolist()) for _ in range(3)]
    for func in (*LANDMARK_FUNCS, *randoms):
        one = nv.synthesize_one(func, metric, options=SearchOptions(settle_relabelings=False))
        assert one == (plain.cost_of(func), plain.witness(func)), func


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
    with pytest.raises(ValueError):
        nv.settle_all(None, library="NCT", weights=weights)
    table = nv.settle_all(
        None, library="NCT", weights=weights,
        options=SearchOptions(settle_relabelings=False),
    )
    weight_of = {g: w for g, (w, _) in zip(gates, weights)}
    assert table.cost_of((4, 5, 6, 7, 0, 1, 2, 3)) == 2   # NOT a
    assert table.cost_of((2, 3, 0, 1, 6, 7, 4, 5)) == 1   # NOT b
    for func in table.functions():
        assert sum(weight_of[g] for g in table.witness(func)) == table.cost_of(func)


@pytest.mark.parametrize("weight", [(0, -1), (-1, 5)])
def test_weights_below_zero_pair_rejected(weight):
    with pytest.raises(ValueError):
        nv.settle_all(None, library="NCT", weights=[weight] * 12)


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


def _sigma_image(state, sigma):
    """The image of a state under sigma: conjugation for sigma >= 6, then the
    line map LINE_PERMUTATIONS[sigma % 6]."""
    if sigma >= len(LINE_PERMUTATIONS):
        state = _conjugated_state(state)
    return _relabeled_state(state, LINE_PERMUTATIONS[sigma % len(LINE_PERMUTATIONS)])


@pytest.mark.parametrize("topology", [nv.FULL_TOPOLOGY, nv.PATH_TOPOLOGY])
def test_canonical_key_is_shared_by_every_image(topology):
    rng = np.random.default_rng(11)
    symmetries = topology.line_symmetries()
    orbits = search._orbit_tables(enumerate_gates(topology, "NCV"), symmetries, True)
    group = [(perm, conj) for conj in (False, True) for perm in symmetries]
    for n_gates in list(range(12)) * 4:
        circuit = nv.random_legal_circuit(rng, n_gates, topology)
        state = apply_circuit(CircuitState.identity(), circuit)
        images = []
        for perm, conj in group:
            image = _relabeled_state(_conjugated_state(state) if conj else state, perm)
            moved = nv.relabel_circuit(nv.vswap(circuit) if conj else circuit, perm, topology)
            assert apply_circuit(CircuitState.identity(), moved) == image
            images.append(image)
        keys = np.array([image.pack() for image in images], dtype=np.uint64)
        canonical, sigma = search._canonical(keys, orbits)
        assert canonical.tolist() == [int(keys.min())] * len(keys)
        for key, sid, least in zip(keys.tolist(), sigma.tolist(), canonical.tolist()):
            assert LINE_PERMUTATIONS[sid % len(LINE_PERMUTATIONS)] in symmetries
            assert _sigma_image(CircuitState.unpack(key), sid).pack() == least


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
    circuit = nv.random_legal_circuit(np.random.default_rng(seed), n_gates, topology)
    reached = apply_circuit(CircuitState.identity(), circuit)
    moved = apply_circuit(CircuitState.from_permutation(target), circuit)
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
    root_key = CircuitState.identity().pack()
    assert len(nv.reconstruct_circuit(ncv111_full, root_key)) == 0
    not_a = CircuitState.from_permutation((4, 5, 6, 7, 0, 1, 2, 3)).pack()
    circuit = nv.reconstruct_circuit(ncv111_full, not_a)
    assert circuit == nv.Circuit((nv.NOT(0),))


def test_reconstruct_settled_state_verifies(ncv111_full):
    func = (3, 0, 1, 2, 7, 4, 5, 6)
    key = CircuitState.from_permutation(func).pack()
    assert nv.check_realizes(nv.reconstruct_circuit(ncv111_full, key), func)


def test_reconstruct_unknown_state(ncv111_full):
    quantum = nv.apply_gate(CircuitState.identity(), nv.V(0, 1))
    with pytest.raises(UnknownState):
        nv.reconstruct_circuit(ncv111_full, quantum.pack())


# --------------------------------------------------------------------------
# Lexicographic (primary, secondary) costs

def test_secondary_metric_costs_each_witness(ncv111_lex012, ncv111_full):
    table = ncv111_lex012
    assert len(table.cost_array()) == nv.N_FUNCTIONS and table.metric == nv.NCV_111
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


SPLIT_SETTLES = {  # name: (session fixture, metric, topology)
    "ncv-012/full": ("ncv012_full", nv.NCV_012, nv.FULL_TOPOLOGY),
    "ncv-111/path": ("ncv111_path", nv.NCV_111, nv.PATH_TOPOLOGY),
}


@pytest.mark.parametrize("name", sorted(SPLIT_SETTLES))
def test_small_chunks_on_more_threads_than_cores_settle_the_same_table(
    name, request, monkeypatch
):
    """Chunks of 64 parents on three worker threads, switching threads
    often: a batch lost or merged out of chunk order would change a
    witness or ``states_visited``.  ncv-012's zero-weight NOT re-enters the
    bucket being drained."""
    fixture, metric, topology = SPLIT_SETTLES[name]
    default = request.getfixturevalue(fixture)
    before = threading.active_count()
    monkeypatch.setattr(search, "_CHUNK", 64)
    monkeypatch.setattr(search, "_workers", lambda: 3)
    counts = _thread_counts(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        table = nv.settle_all(metric, topology)
    finally:
        sys.setswitchinterval(interval)
    assert _same_table(table, default)
    assert max(counts) > before and threading.active_count() == before


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
