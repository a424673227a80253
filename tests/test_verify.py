"""Unitary oracle: gate matrices, realization checks, model consistency."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncvsynth as nv
from ncvsynth import (
    CNOT,
    Circuit,
    IllegalCircuit,
    InvalidFunction,
    NOT,
    PATH_TOPOLOGY,
    TOF,
    TopologyViolation,
    V,
    VPLUS,
)
from ncvsynth.model import FULL_TOPOLOGY, GATES, enumerate_gates, validate_permutation
from ncvsynth.nct import toffoli_decomposition, toffoli_substitute
from ncvsynth.verify import (
    check_model_consistency,
    check_realizes,
    circuit_unitary,
    first_mismatch,
    gate_unitary,
    permutation_matrix,
    verify_witnesses,
)

from helpers import random_legal_circuit

TOF_FUNC = (0, 1, 2, 3, 4, 5, 7, 6)


def test_not_a_is_msb_flip():
    expected = permutation_matrix((4, 5, 6, 7, 0, 1, 2, 3))
    assert np.allclose(gate_unitary(NOT(0)), expected)


def test_v_squared_is_cnot():
    v = gate_unitary(V(1, 2))
    assert np.max(np.abs(v @ v - gate_unitary(CNOT(1, 2)))) < 1e-12


def test_v_times_vplus_is_identity():
    u = gate_unitary(V(1, 2)) @ gate_unitary(VPLUS(1, 2))
    assert np.max(np.abs(u - np.eye(8))) < 1e-12


def test_all_gates_are_unitary():
    gates = enumerate_gates(FULL_TOPOLOGY, "NCV") + enumerate_gates(FULL_TOPOLOGY, "NCT")
    for gate in gates:
        u = gate_unitary(gate)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-9


def test_check_realizes_examples():
    decomposition = Circuit(toffoli_decomposition(0, 1, 2))
    assert check_realizes(decomposition, TOF_FUNC)
    assert check_realizes(Circuit(()), tuple(range(8)))
    lonely_v = Circuit((V(1, 2),))
    assert not any(
        check_realizes(lonely_v, perm)
        for perm in (tuple(range(8)), (1, 0, 2, 3, 4, 5, 6, 7))
    )


def test_first_mismatch_reports_entry():
    hit = first_mismatch(Circuit((NOT(0),)), tuple(range(8)))
    assert hit is not None
    row, col, got, expected = hit
    assert abs(got - expected) > 0.5


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1])
def test_a_tolerance_that_is_not_finite_and_non_negative_raises(tol):
    """nan would accept no circuit and inf every one, so both checks refuse
    them, as they refuse a negative tolerance."""
    not_a = Circuit((NOT(0),))
    with pytest.raises(ValueError, match="tol"):
        check_realizes(not_a, tuple(range(8)), tol)
    with pytest.raises(ValueError, match="tol"):
        first_mismatch(not_a, tuple(range(8)), tol)


def test_tof_unitary_matches_permutation():
    assert np.allclose(gate_unitary(TOF(0, 1, 2)), permutation_matrix(TOF_FUNC))


def test_model_consistency_examples():
    assert check_model_consistency(Circuit((V(1, 2),)))
    assert check_model_consistency(Circuit((NOT(0), CNOT(0, 1), CNOT(2, 0))))
    assert check_model_consistency(Circuit(toffoli_decomposition(0, 1, 2)))


def test_model_consistency_rejects_illegal_circuit():
    with pytest.raises(IllegalCircuit):
        check_model_consistency(Circuit((V(1, 2), V(2, 1))))


def test_consistency_regression_10k():
    """Fixed-seed randomized regression over 10,000 legal circuits."""
    seed = 20230817
    print(f"consistency regression seed: {seed}")
    rng = np.random.default_rng(seed)
    for i in range(10_000):
        circuit = random_legal_circuit(rng, int(rng.integers(0, 17)))
        assert check_model_consistency(circuit), f"inconsistent at circuit {i}: {circuit}"


def test_verify_witnesses_batch_flags_bad_pairs():
    good = [(TOF_FUNC, Circuit(toffoli_decomposition(0, 1, 2)))]
    checked, offender = verify_witnesses(good)
    assert checked == 1 and offender is None
    bad = good + [((4, 5, 6, 7, 0, 1, 2, 3), Circuit((NOT(1),)))]
    checked, offender = verify_witnesses(bad)
    assert checked == 2 and offender == (4, 5, 6, 7, 0, 1, 2, 3)


def test_circuit_unitary_order():
    # gates apply left to right: U = U2 @ U1
    circuit = Circuit((NOT(0), CNOT(0, 1)))
    expected = gate_unitary(CNOT(0, 1)) @ gate_unitary(NOT(0))
    assert np.allclose(circuit_unitary(circuit), expected)


# --------------------------------------------------------------------------
# The exact batch oracle against a float reference

def reference_verify(witnesses, tol=1e-9):
    """The float oracle that ``verify_witnesses`` replaced: circuits grouped
    by length, folded as stacked unitary products, compared within ``tol``."""
    unitaries = {}
    by_len = {}
    checked = 0
    for func, circuit in witnesses:
        for g in circuit:
            if g not in unitaries:
                unitaries[g] = gate_unitary(g)
        by_len.setdefault(len(circuit), []).append((validate_permutation(func), circuit))
        checked += 1
    for length, group in sorted(by_len.items()):
        acc = np.broadcast_to(np.eye(8, dtype=complex), (len(group), 8, 8)).copy()
        for step in range(length):
            acc = np.matmul(np.stack([unitaries[c.gates[step]] for _, c in group]), acc)
        targets = np.stack([permutation_matrix(f) for f, _ in group])
        errs = np.abs(acc - targets).reshape(len(group), -1).max(axis=1)
        bad = np.flatnonzero(errs > tol)
        if len(bad):
            return checked, group[bad[0]][0]
    return checked, None


def _swap_one_v(circuit):
    """Invert the first V or V+ gate; an NCT circuit is Toffoli-substituted
    first, so that it has one."""
    gates = list(toffoli_substitute(circuit) if circuit.library == "NCT" else circuit)
    i = next(i for i, g in enumerate(gates) if g.kind in ("V", "V+"))
    gates[i] = gates[i].inverse()
    return Circuit(tuple(gates))


def _swap_adjacent(circuit):
    """Swap the first two adjacent gates that do not commute."""
    gates = list(circuit)
    for i in range(len(gates) - 1):
        a, b = gate_unitary(gates[i]), gate_unitary(gates[i + 1])
        if not np.allclose(a @ b, b @ a):
            gates[i], gates[i + 1] = gates[i + 1], gates[i]
            return Circuit(tuple(gates), circuit.library)
    raise AssertionError(f"no adjacent non-commuting gates in {circuit}")


MUTATIONS = {
    "drop": lambda c: Circuit(c.gates[:2] + c.gates[3:], c.library),
    "vswap": _swap_one_v,
    "swap-adjacent": _swap_adjacent,
    "not": lambda c: Circuit(
        c.gates[:1] + (NOT(0) if c.gates[1] != NOT(0) else NOT(1),) + c.gates[2:], c.library
    ),
}


@pytest.fixture(scope="module")
def table_witnesses(ncv111_full, ncv111_path, nct_gc):
    """Every witness of three tables, and the float reference's verdict on
    each table (which every mutation below changes in one row only)."""
    out = {}
    for name, table in (("ncv111_full", ncv111_full), ("ncv111_path", ncv111_path),
                        ("nct_gc", nct_gc)):
        witnesses = [(f, table.witness(f)) for f in table.functions()]
        assert reference_verify(witnesses) == (nv.N_FUNCTIONS, None)
        out[name] = witnesses
    return out


def _spy_dtypes(monkeypatch):
    """The dtype of the gate matrices of each ``_first_failure`` call."""
    dtypes = []
    first_failure = nv.verify._first_failure

    def spy(funcs, ids, lengths, mats, scale):
        dtypes.append(mats.dtype)
        return first_failure(funcs, ids, lengths, mats, scale)

    monkeypatch.setattr(nv.verify, "_first_failure", spy)
    return dtypes


#: A circuit of 24 V gates, the identity: a batch that holds it is past
#: complex64's exact range, so it is multiplied out in complex128.
V24_IDENTITY = (tuple(range(8)), Circuit((V(0, 1),) * 24))


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", ["ncv111_full", "ncv111_path", "nct_gc"])
def test_mutated_row_gets_the_float_reference_verdict(
    table_witnesses, monkeypatch, name, mutation
):
    """In complex64, and in complex128 with ``V24_IDENTITY`` added; with
    the default product block and with blocks of 7 prefixes, which split
    every gate's product many times."""
    dtypes = _spy_dtypes(monkeypatch)
    witnesses = list(table_witnesses[name])
    rng = np.random.default_rng(sorted(MUTATIONS).index(mutation))
    deep = [i for i, (_, c) in enumerate(witnesses)
            if len(c) >= 4 and any(g.kind in ("V", "V+", "TOF") for g in c)]
    row = deep[int(rng.integers(len(deep)))]
    func, circuit = witnesses[row]
    witnesses[row] = (func, MUTATIONS[mutation](circuit))
    assert witnesses[row][1] != circuit
    # Every other row passes both oracles, so the whole-table verdict is the
    # mutated row's own.
    verdict = reference_verify([witnesses[row]])[1]
    assert verdict == func
    for block in (nv.verify._PRODUCT_BLOCK, 7):
        monkeypatch.setattr(nv.verify, "_PRODUCT_BLOCK", block)
        dtypes.clear()
        assert verify_witnesses(witnesses) == (nv.N_FUNCTIONS, verdict)
        assert verify_witnesses(witnesses + [V24_IDENTITY]) == (nv.N_FUNCTIONS + 1, verdict)
        assert dtypes == [np.complex64, np.complex128]


def test_complex64_certifies_up_to_its_bound(monkeypatch):
    """20 V gates on one placement are the identity, certified in
    complex64, and a wrong function claimed for them is named; one more V
    gate in the batch sends it to complex128."""
    dtypes = _spy_dtypes(monkeypatch)
    bound = nv.verify._COMPLEX64_V_GATES
    assert bound == 20
    identity, cnot = tuple(range(8)), nv.realized_function(Circuit((CNOT(0, 1),)))
    at_bound = Circuit((V(0, 1),) * bound)
    assert verify_witnesses([(identity, at_bound)]) == (1, None)
    assert verify_witnesses([(identity, at_bound), (cnot, at_bound)]) == (2, cnot)
    past = (cnot, Circuit((V(0, 1),) * (bound + 2)))
    assert verify_witnesses([(identity, at_bound), (cnot, at_bound), past]) == (3, cnot)
    assert dtypes == [np.complex64, np.complex64, np.complex128]


def test_shortest_failure_is_reported_first():
    good = (TOF_FUNC, Circuit(toffoli_decomposition(0, 1, 2)))
    long_bad = (TOF_FUNC, Circuit(toffoli_decomposition(0, 1, 2)[1:]))
    short_bad = ((4, 5, 6, 7, 0, 1, 2, 3), Circuit((NOT(1),)))
    short_bad_later = ((0, 1, 2, 3, 4, 5, 6, 7), Circuit((NOT(2),)))
    assert verify_witnesses([good, long_bad, short_bad, short_bad_later]) == (4, short_bad[0])
    assert verify_witnesses([good, long_bad]) == (2, TOF_FUNC)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(0, 12), min_size=1, max_size=10),
    topology=st.sampled_from([FULL_TOPOLOGY, PATH_TOPOLOGY]),
)
def test_random_batches_agree_with_check_realizes(seed, lengths, topology):
    """Random legal circuits and some of their prefixes, each claiming its
    own function (when it has one) or a random one: the verdict is the first
    pair, by (length, order), that check_realizes rejects."""
    rng = np.random.default_rng(seed)
    circuits = []
    for n_gates in lengths:
        circuit = random_legal_circuit(rng, n_gates, topology)
        circuits += [circuit, Circuit(circuit.gates[:int(rng.integers(n_gates + 1))])]
    batch = []
    for circuit in circuits:
        state = nv.apply_circuit(nv.CircuitState.identity(), circuit)
        if state.is_boolean and rng.random() < 0.7:
            func = state.permutation()
        else:
            func = tuple(rng.permutation(8).tolist())
        batch.append((func, circuit))
    failing = [(len(c), i) for i, (f, c) in enumerate(batch) if not check_realizes(c, f)]
    expected = batch[min(failing)[1]][0] if failing else None
    assert verify_witnesses(batch, topology=topology) == (len(batch), expected)


def test_scaled_gate_matrices_are_twice_the_v_unitaries():
    """Verdicts cannot see V and V+ traded in every gate at once (conjugation
    fixes a permutation matrix), so the scaled matrices are checked here."""
    allowed, mats, doubled = nv.verify._gate_index(PATH_TOPOLOGY)
    assert len(allowed) == len(mats) == len(doubled) - 1 == len(GATES) and not doubled[-1]
    single = nv.verify._complex64_mats(PATH_TOPOLOGY)
    assert single.dtype == np.complex64 and np.array_equal(single, mats)
    path_gates = enumerate_gates(PATH_TOPOLOGY, "NCV") + enumerate_gates(PATH_TOPOLOGY, "NCT")
    assert {GATES[code] for code in np.flatnonzero(allowed)} == set(path_gates)
    for code, gate in enumerate(GATES):
        assert allowed[code] == PATH_TOPOLOGY.allows_gate(gate)
        factor = 2 if gate.kind in ("V", "V+") else 1
        assert doubled[code] == (factor == 2)
        assert np.array_equal(mats[code], factor * gate_unitary(gate))


def test_verify_witnesses_edge_cases():
    assert verify_witnesses([]) == (0, None)
    assert verify_witnesses(iter([])) == (0, None)
    identity = tuple(range(8))
    empty = Circuit(())
    assert verify_witnesses([(identity, empty)]) == (1, None)
    assert verify_witnesses([(identity, empty), (TOF_FUNC, empty)]) == (2, TOF_FUNC)
    pairs = ((f, Circuit((NOT(0),))) for f in [(4, 5, 6, 7, 0, 1, 2, 3)] * 3)
    assert verify_witnesses(pairs) == (3, None)
    # numpy functions, reported back as tuples
    assert verify_witnesses([(np.arange(8), empty), (np.array(TOF_FUNC), empty)]) == (
        2, TOF_FUNC
    )


def test_verify_witnesses_rejects_gates_outside_the_topology():
    circuit = Circuit((NOT(0), CNOT(0, 2)))
    func = nv.realized_function(circuit)
    assert verify_witnesses([(func, circuit)]) == (1, None)
    with pytest.raises(TopologyViolation, match=r"CNOT a c .*path.*" + str(func)[1:-1]):
        verify_witnesses([(func, circuit)], topology=PATH_TOPOLOGY)
    with pytest.raises(TopologyViolation, match="TOF a b c"):
        verify_witnesses([(TOF_FUNC, Circuit((TOF(0, 1, 2),), "NCT"))], topology=PATH_TOPOLOGY)


def test_verify_witnesses_names_an_illegal_gate_inside_a_large_batch(ncv111_path):
    """A path-illegal gate that opens a circuit in the middle of a table's
    witnesses, right after an empty circuit, is named with its function; a
    later one is not."""
    batch = [(f, ncv111_path.witness(f)) for f in ncv111_path.functions()]
    assert verify_witnesses(batch, topology=PATH_TOPOLOGY) == (len(batch), None)
    row = 23456
    func, circuit = batch[row]
    batch[row] = (func, Circuit((CNOT(0, 2),) + circuit.gates))
    batch[row - 1] = (batch[row - 1][0], Circuit(()))
    later_func, later = batch[row + 5000]
    batch[row + 5000] = (later_func, Circuit((V(2, 0),) + later.gates))
    message = f"CNOT a c is not a gate of the path topology (in the circuit for {func!r})"
    with pytest.raises(TopologyViolation, match=f"^{re.escape(message)}$"):
        verify_witnesses(batch, topology=PATH_TOPOLOGY)
    # On the full topology every gate is legal: the batch certifies up to
    # its changed rows, of which the empty circuit is the shortest.
    assert verify_witnesses(batch) == (len(batch), batch[row - 1][0])


FUNCTION_FORMS = {"interned": lambda f: f, "copies": lambda f: tuple(list(f)), "numpy": np.array}


@pytest.mark.parametrize("form", sorted(FUNCTION_FORMS))
def test_verdicts_do_not_depend_on_the_form_of_the_functions(ncv111_path, form):
    """The interned tuples of ``functions()``, equal copies and numpy rows
    certify alike, name the same offender (as a tuple) and are rejected
    with the same text."""
    functions = list(ncv111_path.functions())
    batch = [(FUNCTION_FORMS[form](f), ncv111_path.witness(f)) for f in functions]
    assert verify_witnesses(batch, topology=PATH_TOPOLOGY) == (nv.N_FUNCTIONS, None)
    row = 31415
    func, circuit = batch[row]
    batch[row] = (func, Circuit((NOT(0),) + circuit.gates))
    checked, offender = verify_witnesses(batch, topology=PATH_TOPOLOGY)
    assert (checked, offender) == (nv.N_FUNCTIONS, functions[row]) and type(offender) is tuple
    batch[row] = ((0, 1, 2, 3, 4, 5, 6, 8), circuit)
    message = "not a permutation of 0..7: (0, 1, 2, 3, 4, 5, 6, 8)"
    with pytest.raises(InvalidFunction, match=f"^{re.escape(message)}$"):
        verify_witnesses(batch, topology=PATH_TOPOLOGY)


def test_first_failure_rejects_a_product_with_extra_nonzero_entries():
    """A product whose permutation entries are right but which has another
    nonzero entry in the same prefix fails (here a 'gate' that is no
    unitary: the identity plus one entry)."""
    mats = np.stack([np.eye(8, dtype=complex), np.eye(8, dtype=complex)])
    mats[1, 0, 1] = 1
    funcs = np.array([list(range(8))] * 2)
    ids, lengths, scale = np.array([[0], [1]]), np.array([1, 1]), np.ones(2)
    assert nv.verify._first_failure(funcs[:1], ids[:1], lengths[:1], mats, scale[:1]) is None
    assert nv.verify._first_failure(funcs, ids, lengths, mats, scale) == 1


def test_verify_witnesses_refuses_circuits_past_the_exact_range():
    limit = nv.verify.MAX_EXACT_V_GATES
    ok = Circuit((V(0, 1),) * (limit - limit % 4))
    assert verify_witnesses([(tuple(range(8)), ok)]) == (1, None)
    with pytest.raises(ValueError, match="exact range"):
        verify_witnesses([(tuple(range(8)), Circuit((V(0, 1),) * (limit + 1)))])


BAD_FUNCTIONS = [
    (0, 1, 2, 3, 4, 5, 6),
    (0, 1, 2, 3, 4, 5, 6, 7, 0),
    (0, 0, 1, 2, 3, 4, 5, 6),
    (0, 1, 2, 3, 4, 5, 6, 8),
    (-1, 1, 2, 3, 4, 5, 6, 7),
    (0, 1, 2, 3, 4, 5, 6, 7.9),
    (0, 1, 2, 3, 4, 5, 6, 7.0),
    (0, 1, 2, 3, 4, 5, 6, "7"),
    np.arange(8, dtype=float),
    "01234567",
    7,
]


@pytest.mark.parametrize("bad", BAD_FUNCTIONS, ids=repr)
def test_invalid_functions_are_rejected_alike(bad):
    """validate_permutation, function_rank and the batch oracle's
    vectorized check reject the same inputs."""
    with pytest.raises(InvalidFunction):
        validate_permutation(bad)
    with pytest.raises(InvalidFunction):
        nv.model.function_rank(bad)
    good = [(tuple(range(8)), Circuit(()))] * 3
    with pytest.raises(InvalidFunction):
        verify_witnesses(good + [(bad, Circuit(()))])
