"""Gate semantics, circuit transforms, and their algebraic properties."""

import copy
import dataclasses
import itertools
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ncvsynth as nv
from ncvsynth import (
    CNOT,
    Circuit,
    CircuitState,
    CostMetric,
    FULL_TOPOLOGY,
    Gate,
    NOT,
    PATH_TOPOLOGY,
    QuantumControl,
    TOF,
    TopologyViolation,
    V,
    VPLUS,
)
from ncvsynth.model import Topology, enumerate_gates, relabel_function, row_permutation
from ncvsynth.nct import toffoli_decomposition

from helpers import random_legal_circuit, state_of_permutation

TOF_FUNC = (0, 1, 2, 3, 4, 5, 7, 6)

line_perms = st.permutations(range(3)).map(tuple)
functions = st.permutations(range(8)).map(tuple)


def fold(gates, state=None):
    state = state or CircuitState.identity()
    for g in gates:
        state = nv.apply_gate(state, g)
    return state


# --------------------------------------------------------------------------
# Values and gates

@pytest.mark.parametrize(
    "bad",
    [
        lambda: Gate("NOT", 0, (1,)),
        lambda: Gate("CNOT", 0, ()),
        lambda: Gate("TOF", 0, (1,)),
        lambda: Gate("CNOT", 1, (1,)),
        lambda: Gate("TOF", 2, (1, 1)),
        lambda: Gate("HADAMARD", 0),
        lambda: Gate("NOT", 3),
    ],
)
def test_gate_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_gate_inverse_and_placement():
    assert V(0, 2).inverse() == VPLUS(0, 2)
    assert VPLUS(0, 2).inverse() == V(0, 2)
    assert NOT(1).inverse() == NOT(1)
    assert TOF(0, 1, 2).inverse() == TOF(1, 0, 2)
    assert V(0, 2).placement == CNOT(0, 2).placement == ((0,), 2)


def test_circuit_library_validation():
    with pytest.raises(ValueError):
        Circuit((TOF(0, 1, 2),), "NCV")
    with pytest.raises(ValueError):
        Circuit((V(0, 1),), "NCT")
    Circuit((NOT(0), CNOT(0, 1)), "NCT")  # shared kinds are fine


def test_circuit_constructor_errors():
    with pytest.raises(ValueError, match=r"^unknown library 'XYZ'$"):
        Circuit((NOT(0),), "XYZ")
    with pytest.raises(ValueError, match=r"^TOF gate is not in the NCV library$"):
        Circuit((NOT(0), TOF(0, 1, 2)))
    with pytest.raises(AttributeError, match="'str' object has no attribute 'kind'"):
        Circuit(("NOT a",))
    with pytest.raises(TypeError, match="a circuit holds Gate objects"):
        Circuit((types.SimpleNamespace(kind="NOT", target=0, controls=()),))
    with pytest.raises(TypeError, match="not iterable"):
        Circuit(5)


circuits = st.builds(
    lambda seed, n, topology: random_legal_circuit(np.random.default_rng(seed), n, topology),
    st.integers(0, 2**32 - 1), st.integers(0, 20), st.sampled_from([FULL_TOPOLOGY, PATH_TOPOLOGY]),
)


@given(circuits, st.sampled_from([TOF(0, 1, 2), TOF(0, 2, 1), TOF(1, 2, 0)]))
def test_circuit_round_trips_through_its_gates(circuit, toffoli):
    """A circuit stored as gate codes is the circuit its gates build, and
    reads back the same gates, length and text; so is its NCT image with
    a Toffoli after its NOT and CNOT gates."""
    nct = Circuit(tuple(g for g in circuit if g.kind in ("NOT", "CNOT")) + (toffoli,), "NCT")
    for c in (circuit, nct):
        gates = c.gates
        assert type(gates) is tuple and all(type(g) is Gate for g in gates)
        assert Circuit(gates, c.library) == c and hash(Circuit(gates, c.library)) == hash(c)
        assert list(c) == list(gates) and len(c) == len(gates)
        assert str(c) == ("; ".join(map(str, gates)) or "(empty)")
    assert nct.gates[-1] == toffoli


def test_circuit_repr_is_pinned():
    assert repr(Circuit((NOT(0), V(1, 2)))) == (
        "Circuit(gates=(Gate(kind='NOT', target=0, controls=()), "
        "Gate(kind='V', target=2, controls=(1,))), library='NCV')"
    )
    assert repr(Circuit((TOF(1, 0, 2),), "NCT")) == (
        "Circuit(gates=(Gate(kind='TOF', target=2, controls=(0, 1)),), library='NCT')"
    )
    assert Circuit((NOT(0),), "NCT") != Circuit((NOT(0),), "NCV")


def test_circuit_is_immutable():
    circuit = Circuit((NOT(0), CNOT(0, 1)))
    for name in ("gates", "library", "codes", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(circuit, name, ())
    with pytest.raises(dataclasses.FrozenInstanceError):
        del circuit.library
    assert circuit == Circuit((NOT(0), CNOT(0, 1)))


@pytest.mark.parametrize("circuit", [
    Circuit(()), Circuit((NOT(0), V(1, 2), VPLUS(2, 0))), Circuit((CNOT(0, 1), TOF(0, 1, 2)), "NCT"),
], ids=str)
def test_circuit_pickle_and_copy_round_trips(circuit):
    for back in (pickle.loads(pickle.dumps(circuit)), copy.copy(circuit), copy.deepcopy(circuit)):
        assert type(back) is Circuit
        assert back == circuit and hash(back) == hash(circuit)
        assert back.gates == circuit.gates and back.library == circuit.library


# --------------------------------------------------------------------------
# apply_gate

def test_apply_not_c():
    state = nv.apply_gate(CircuitState.identity(), NOT(2))
    assert state.permutation() == (1, 0, 3, 2, 5, 4, 7, 6)


def test_apply_v_creates_quantum_values():
    state = nv.apply_gate(CircuitState.identity(), V(1, 2))
    ident = CircuitState.identity()
    for i in range(8):
        if i in (2, 6):
            assert state.rows[i][2] == 1  # c went 0 -> V
        elif i in (3, 7):
            assert state.rows[i][2] == 3  # c went 1 -> V+
        else:
            assert state.rows[i] == ident.rows[i]
    assert not state.is_boolean


def test_quantum_control_rejected():
    state = nv.apply_gate(CircuitState.identity(), V(1, 2))
    with pytest.raises(QuantumControl):
        nv.apply_gate(state, V(2, 1))


def test_tof_apply():
    state = nv.apply_gate(CircuitState.identity(), TOF(0, 1, 2))
    assert state.permutation() == TOF_FUNC


def test_involutions():
    ident = CircuitState.identity()
    assert fold([NOT(0), NOT(0)]) == ident
    assert fold([CNOT(1, 2), CNOT(1, 2)]) == ident
    assert fold([V(0, 1), VPLUS(0, 1)]) == ident


@given(functions)
def test_v_squared_equals_cnot(func):
    start = state_of_permutation(func)
    assert fold([V(0, 2), V(0, 2)], start) == fold([CNOT(0, 2)], start)


def test_projection_assertion_is_hard_error():
    broken = CircuitState(((0,) * 3,) * 8)  # all rows identical: not a permutation
    with pytest.raises(AssertionError):
        nv.apply_gate(broken, NOT(0))


# --------------------------------------------------------------------------
# Packing

@given(st.lists(st.integers(0, 3), min_size=24, max_size=24))
def test_pack_unpack_roundtrip(levels):
    rows = tuple(tuple(levels[3 * r:3 * r + 3]) for r in range(8))
    state = CircuitState(rows)
    assert CircuitState.unpack(state.pack()) == state
    assert state.pack() < 1 << 48


@given(functions)
def test_from_permutation_roundtrip(func):
    assert state_of_permutation(func).permutation() == func


# --------------------------------------------------------------------------
# Cost, inversion, vswap

def test_circuit_cost_examples():
    three = Circuit((NOT(0), NOT(1), CNOT(0, 1)))
    two = Circuit((CNOT(0, 1), NOT(0)))
    assert nv.circuit_cost(three, nv.NCV_155) == 7
    assert nv.circuit_cost(two, nv.NCV_155) == 6
    assert nv.circuit_cost(Circuit(()), nv.NCV_012) == 0


def test_invert_circuit_examples():
    circuit = Circuit((V(0, 2), CNOT(0, 1)))
    assert nv.invert_circuit(circuit) == Circuit((CNOT(0, 1), VPLUS(0, 2)))
    assert nv.invert_circuit(Circuit(())) == Circuit(())


@pytest.mark.parametrize("seed", range(5))
def test_inverse_composition_is_identity(seed):
    rng = np.random.default_rng(seed)
    circuit = random_legal_circuit(rng, int(rng.integers(0, 12)))
    state = fold(circuit.gates)
    back = fold(nv.invert_circuit(circuit).gates, state)
    assert back == CircuitState.identity()


def test_vswap():
    dec = Circuit(toffoli_decomposition(0, 1, 2))
    swapped = nv.vswap(dec)
    assert nv.realized_function(swapped) == TOF_FUNC
    assert nv.circuit_cost(swapped, nv.NCV_111) == nv.circuit_cost(dec, nv.NCV_111)
    plain = Circuit((NOT(0), CNOT(1, 2)))
    assert nv.vswap(plain) == plain
    assert nv.vswap(Circuit((V(1, 2),))) == Circuit((VPLUS(1, 2),))


@pytest.mark.parametrize("metric", [nv.NCV_111, nv.NCV_012, nv.NCV_155])
@pytest.mark.parametrize("seed", range(3))
def test_cost_invariance_under_inversion_and_vswap(metric, seed):
    rng = np.random.default_rng(100 + seed)
    circuit = random_legal_circuit(rng, int(rng.integers(0, 14)))
    cost = nv.circuit_cost(circuit, metric)
    assert nv.circuit_cost(nv.invert_circuit(circuit), metric) == cost
    assert nv.circuit_cost(nv.vswap(circuit), metric) == cost


# --------------------------------------------------------------------------
# Relabeling

def test_rank_tables_match_scalar_algebra():
    tables = nv.model.rank_tables()
    functions = [tables.function(rank) for rank in range(nv.N_FUNCTIONS)]
    assert functions == sorted(itertools.permutations(range(8)))
    for rank, func in enumerate(functions):
        assert nv.model.function_rank(func) == rank
        for j, perm in enumerate(nv.model.LINE_PERMUTATIONS):
            assert functions[tables.relabeled[rank, j]] == relabel_function(func, perm)


def lehmer_rank(func):
    """Lexicographic rank of a permutation by its Lehmer code."""
    rank = 0
    for i, out in enumerate(func):
        rank = rank * (8 - i) + sum(1 for later in func[i + 1:] if later < out)
    return rank


def test_function_rank_equals_the_lehmer_rank():
    for func in itertools.permutations(range(8)):
        assert nv.model.function_rank(func) == lehmer_rank(func)


NOT_PERMUTATIONS = [
    (0, 1, 2, 3, 4, 5, 6),
    (1, 2, 3, 4, 5, 6, 7),
    (0, 1, 2, 3, 4, 5, 6, 7, 0),
    (0, 0, 1, 2, 3, 4, 5, 6, 7),
    (0, 0, 1, 2, 3, 4, 5, 6),
    (0, 1, 2, 3, 4, 5, 6, 8),
    (0, 1, 2, 3, 4, 5, 6, 256),
    (0, 1, 2, 3, 4, 5, 6, 7.0),
    (0, 1, 2, 3, 4, 5, 6, 7.9),
    (0, 1, 2, 3, 4, 5, 6, "7"),
    (0, 1, 2, 3, 4, 5, 6, [7]),
    "01234567",
    np.arange(8, dtype=float),
    np.arange(8).reshape(2, 4),
    None,
]


def test_function_rank_rejects_non_permutations():
    """Wrong lengths (a 7- or 9-tuple must not alias an 8-byte code),
    duplicates, out-of-range values, floats and strings."""
    for bad in NOT_PERMUTATIONS:
        with pytest.raises(nv.InvalidFunction):
            nv.model.function_rank(bad)
        with pytest.raises(nv.InvalidFunction):
            nv.model.validate_permutation(bad)


def test_function_rank_by_halves_ranks_every_function_and_rejects_overlaps():
    """``function_rank`` ranks every function, and rejects eight outputs
    whose first four and last four are each four distinct outputs but share
    one, as well as a negative or too large output and short ``bytes``."""
    outputs = nv.model.rank_tables().outputs.tolist()
    assert [nv.model.function_rank(tuple(f)) for f in outputs] == list(range(nv.N_FUNCTIONS))
    for head in itertools.permutations(range(8), 4):
        rest = [v for v in range(8) if v not in head]
        for tail in (head[::-1], (*rest[:3], head[0]), (head[3], *rest[1:])):
            with pytest.raises(nv.InvalidFunction):
                nv.model.function_rank((*head, *tail))
    for bad in [(0, 1, 2, 3, -1, 5, 6, 7), bytes([0, 1, 2, 3, 4, 5, 6, 8]), b"\x00\x01\x02\x03"]:
        with pytest.raises(nv.InvalidFunction):
            nv.model.function_rank(bad)


@pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
def test_interned_tuples_change_no_verdict(nct_gc, monkeypatch, built):
    """Before ``function_tuples`` has built the interned tuples (reset here,
    as one pytest process shares them) and after, ``function_rank`` and the
    table's tuple-keyed methods reject the same inputs: the float tuple
    equals the interned identity and hashes like it, yet is no function.
    Equal copies, lists and numpy rows rank as the interned tuple does."""
    functions = nv.model.function_tuples()
    if not built:
        monkeypatch.setattr(nv.model, "_interned", None)
    for bad in NOT_PERMUTATIONS:
        for call in (nv.model.function_rank, nct_gc.cost_of, nct_gc.secondary_of, nct_gc.witness):
            with pytest.raises(nv.InvalidFunction):
                call(bad)
    for rank in (0, 1, 5039, 23456, nv.N_FUNCTIONS - 1):
        func = functions[rank]
        for same in (func, tuple(list(func)), list(func), np.array(func)):
            assert nv.model.function_rank(same) == rank
    assert (nv.model._interned is None) is not built


@given(st.permutations(range(8)))
def test_function_rank_accepts_integer_sequences_of_any_kind(func):
    rank = lehmer_rank(func)
    integer_dtypes = (np.int8, np.uint8, np.int16, np.int32, np.int64, np.uint64)
    for same in (nv.model.function_tuples()[rank], tuple(func), func, bytes(func), iter(func),
                 tuple(np.array(func)), *(np.array(func, dtype=d) for d in integer_dtypes)):
        assert nv.model.function_rank(same) == rank
    assert nv.model.function_rank(np.arange(8)) == 0
    assert nv.model.validate_permutation(np.array(func, dtype=np.int32)) == tuple(func)


@given(start=st.integers(0, nv.N_FUNCTIONS), step=st.integers(1, 4000),
       count=st.integers(0, 40), columns=st.permutations(range(8)))
def test_ranks_of_ranks_rows_of_any_dtype_and_layout(start, step, count, columns):
    """``RankTables.ranks_of`` against ``function_rank`` and the Lehmer
    rank, on rows of the rank tables' outputs: a row-sliced view, its rows
    with the columns permuted as strided and reversed views, and as int64,
    uint8 and Fortran-order copies; zero rows too."""
    tables = nv.model.rank_tables()
    rows = tables.outputs[start:start + count * step:step]
    assert tables.ranks_of(rows).tolist() == list(range(nv.N_FUNCTIONS)[start:start + count * step:step])
    permuted = rows[:, columns]
    expected = [lehmer_rank(f) for f in permuted.tolist()]
    assert [nv.model.function_rank(f) for f in permuted.tolist()] == expected
    spread = np.zeros((len(rows), 16), dtype=np.int64)
    spread[:, 1::2] = permuted
    for matrix in (spread[:, 1::2], permuted.astype(np.int64), permuted.astype(np.uint8),
                   np.asfortranarray(permuted, dtype=np.int32)):
        ranks = tables.ranks_of(matrix)
        assert ranks.dtype == np.int32 and ranks.tolist() == expected
        assert tables.ranks_of(matrix[::-1]).tolist() == expected[::-1]


def test_relabel_function_examples():
    assert relabel_function(TOF_FUNC, (2, 1, 0)) == (0, 1, 2, 7, 4, 5, 6, 3)
    assert relabel_function(tuple(range(8)), (1, 2, 0)) == tuple(range(8))


@given(functions, line_perms, line_perms)
def test_relabel_group_action(func, pi, sigma):
    composed = tuple(sigma[pi[l]] for l in range(3))
    assert relabel_function(relabel_function(func, pi), sigma) == relabel_function(
        func, composed
    )


def test_relabel_circuit_matches_conjugation():
    dec = Circuit(toffoli_decomposition(0, 1, 2))
    for pi in nv.model.LINE_PERMUTATIONS:
        relabeled = nv.relabel_circuit(dec, pi)
        assert nv.realized_function(relabeled) == relabel_function(TOF_FUNC, pi)


def test_relabel_topology_violation():
    circuit = Circuit((CNOT(0, 2),))
    with pytest.raises(TopologyViolation):
        nv.relabel_circuit(circuit, (2, 1, 0), PATH_TOPOLOGY)
    # the same relabeling is fine under the full topology
    assert nv.relabel_circuit(circuit, (2, 1, 0)) == Circuit((CNOT(2, 0),))


def test_relabel_dispatch():
    """A function and a circuit, each relabeled by its own function."""
    assert relabel_function(TOF_FUNC, (2, 1, 0)) == (0, 1, 2, 7, 4, 5, 6, 3)
    assert nv.relabel_circuit(Circuit((NOT(0),)), (2, 1, 0)) == Circuit((NOT(2),))


def test_row_permutation_msb_convention():
    # line a is the most significant row-index bit
    assert row_permutation((2, 1, 0)) == (0, 4, 2, 6, 1, 5, 3, 7)


# --------------------------------------------------------------------------
# Metrics, topologies, enumeration

def test_metric_parse():
    assert CostMetric.parse("ncv-111") is nv.NCV_111
    assert CostMetric.parse("NCV-012") is nv.NCV_012
    custom = CostMetric.parse("custom:1,5,5")
    assert (custom.w_not, custom.w_cnot, custom.w_v, custom.w_vplus) == (1, 5, 5, 5)
    for bad in ("custom:1,2", "custom:a,b,c", "ncv-999"):
        with pytest.raises(ValueError):
            CostMetric.parse(bad)
    with pytest.raises(ValueError):
        CostMetric(-1, 0, 0, 0)


def test_metric_weights_are_capped():
    """Under the cap any circuit of fewer than 2**31 gates costs less than
    2**63, so every cost fits int64."""
    cap = nv.model.MAX_WEIGHT
    assert (2 ** 31 - 1) * cap < 2 ** 63
    assert CostMetric(cap, cap, cap, cap).w_v == cap
    for weights in [(cap + 1, 1, 1, 1), (1, 1, 1, cap + 1), (1, 2 ** 70, 1, 1)]:
        with pytest.raises(ValueError, match="cap"):
            CostMetric(*weights)
    with pytest.raises(ValueError, match="cap"):
        CostMetric.parse("custom:99999999999999999999,1,1")


def test_metric_slug_separates_unequal_v_weights():
    # the slug names cache files: two metrics must never share one
    assert CostMetric(1, 1, 1, 2).slug == "custom-1-1-1-2"
    assert CostMetric(1, 1, 1, 1).slug == CostMetric.parse("custom:1,1,1").slug == "custom-1-1-1"


def test_builtin_metrics_weigh_v_and_vplus_equally():
    for metric in nv.METRICS.values():
        assert metric.w_v == metric.w_vplus


def test_topology_symmetries():
    assert set(FULL_TOPOLOGY.line_symmetries()) == set(nv.model.LINE_PERMUTATIONS)
    assert set(PATH_TOPOLOGY.line_symmetries()) == {(0, 1, 2), (2, 1, 0)}
    assert FULL_TOPOLOGY.is_connected() and PATH_TOPOLOGY.is_connected()
    assert not Topology(frozenset({(0, 1)})).is_connected()


def test_enumerate_gates_counts():
    full = enumerate_gates(FULL_TOPOLOGY)
    path = enumerate_gates(PATH_TOPOLOGY)
    empty = enumerate_gates(Topology(frozenset()))
    assert len(full) == 21 and len(path) == 15 and len(empty) == 3
    assert full[:3] == (NOT(0), NOT(1), NOT(2))
    kinds = [g.kind for g in full]
    assert kinds == ["NOT"] * 3 + ["CNOT"] * 6 + ["V"] * 6 + ["V+"] * 6
    assert len(enumerate_gates(FULL_TOPOLOGY, "NCT")) == 12
    # TOF needs all three pairwise interactions
    assert len(enumerate_gates(PATH_TOPOLOGY, "NCT")) == 3 + 4


def test_path_gates_respect_pairs():
    for g in enumerate_gates(PATH_TOPOLOGY):
        assert PATH_TOPOLOGY.allows_gate(g)
