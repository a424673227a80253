"""Exact 8x8 unitary oracle, independent of the quaternary model.

Every circuit the synthesis emits can be certified here: gates are expanded
to full 8x8 complex matrices, multiplied out in order, and compared entrywise
against the 0/1 permutation matrix of the claimed function.  No global-phase
quotient is needed; the NOT/CNOT/V/V+/TOF gate set realizes Boolean functions
exactly.

The batch oracle ``verify_witnesses`` is exact.  Every gate unitary has
entries in Z[i][1/2], and doubling V and V+ makes them Gaussian integers
(the ring argument of Giles & Selinger, PRA 2013), so a circuit with k V/V+
gates passes iff its scaled product equals 2^k times the permutation matrix,
with every entry an integer that complex128 holds exactly.  A batch whose
circuits have at most 20 V/V+ gates each is multiplied out in complex64.
After j doubled gates every entry is a Gaussian integer whose real and
imaginary parts are at most 2^j in size, and a gate row has at most two
nonzero entries, each part at most 1 in size, so every product and partial
sum of the next step stays below 2^(j+3), even in a 3M complex product.
float32 holds every integer up to 2^24 exactly, which covers j <= 21.  It
multiplies each distinct circuit prefix once.  The single-circuit checks
``check_realizes`` and ``first_mismatch`` (the CLI's ``verify --tol``) and
``check_model_consistency`` compare unscaled products within a tolerance.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .errors import IllegalCircuit, InternalError, QuantumControl, TopologyViolation
from .model import (
    Circuit,
    CircuitState,
    FULL_TOPOLOGY,
    GATES,
    Gate,
    N_LINES,
    N_ROWS,
    Topology,
    apply_gate,
    function_rank,
    rank_tables,
    validate_permutation,
)

DEFAULT_TOL = 1e-9
#: Most V/V+ gates in a circuit that ``verify_witnesses`` certifies: every
#: partial sum of its scaled products then stays below 2^53.
MAX_EXACT_V_GATES = 48
#: Most V/V+ gates in every circuit of a batch that ``verify_witnesses``
#: multiplies out in complex64, whose parts hold integers up to 2^24
#: exactly (see the module docstring).
_COMPLEX64_V_GATES = 20

#: Most prefixes that one gate's product in ``_first_failure`` extends, so
#: that each 8 x 8 by 8 x 8n GEMM stays on the calling thread and never
#: wakes OpenBLAS's pool: unblocked, the first table of 2 in 20 ``tables``
#: benchmark processes took 1.9-2.1 s to settle and certify in place of
#: about 0.65 s.  By per-thread CPU time, OpenBLAS 0.3.31 (Haswell kernels)
#: ran complex64 and complex128 products on one thread for n <= 127 and on
#: its pool from n = 128 (M * N * K = 65,536) on.  Whole-table calls took
#: the same time in blocks of 127 as unblocked (80.6 against 84.3 ms on
#: ncv-111/full, medians of 11 on 2 CPUs).
_PRODUCT_BLOCK = 127

#: The controlled-V target transformation: a square root of NOT.
V_MATRIX = (1 + 1j) / 2 * np.array([[1, -1j], [-1j, 1]])

_KIND_2X2 = {
    "NOT": np.array([[0, 1], [1, 0]], dtype=complex),
    "CNOT": np.array([[0, 1], [1, 0]], dtype=complex),
    "TOF": np.array([[0, 1], [1, 0]], dtype=complex),
    "V": V_MATRIX,
    "V+": V_MATRIX.conj().T,
}


def _line_bit(line: int) -> int:
    # Row index convention: i = 4a + 2b + c, so line 0 (a) is bit 2.
    return 2 - line


def gate_unitary(gate: Gate) -> np.ndarray:
    """Embed a gate into the 8-dimensional space of the three lines.

    The 2x2 block acts on the target wherever all control bits of the basis
    index are 1; all other basis states pass through unchanged.
    """
    block = _KIND_2X2[gate.kind]
    u = np.zeros((N_ROWS, N_ROWS), dtype=complex)
    tbit = 1 << _line_bit(gate.target)
    for j in range(N_ROWS):
        if all((j >> _line_bit(c)) & 1 for c in gate.controls):
            t = (j >> _line_bit(gate.target)) & 1
            u[j & ~tbit, j] = block[0, t]
            u[j | tbit, j] = block[1, t]
        else:
            u[j, j] = 1.0
    return u


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of gate unitaries (first gate applied first)."""
    u = np.eye(N_ROWS, dtype=complex)
    for gate in circuit:
        u = gate_unitary(gate) @ u
    return u


def permutation_matrix(func: Sequence[int]) -> np.ndarray:
    func = validate_permutation(func)
    p = np.zeros((N_ROWS, N_ROWS), dtype=complex)
    for i, out in enumerate(func):
        p[out, i] = 1.0
    return p


def check_realizes(
    circuit: Circuit, func: Sequence[int], tol: float = DEFAULT_TOL
) -> bool:
    """True iff the circuit's unitary equals the function's permutation matrix
    entrywise within ``tol`` (see ``first_mismatch``)."""
    return first_mismatch(circuit, func, tol) is None


def first_mismatch(
    circuit: Circuit, func: Sequence[int], tol: float = DEFAULT_TOL
) -> tuple[int, int, complex, complex] | None:
    """First offending matrix entry (row, col, got, expected), or None.
    ValueError unless ``tol`` is a finite number >= 0: nan would accept no
    circuit and inf every one."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, not {tol}")
    u = circuit_unitary(circuit)
    p = permutation_matrix(func)
    bad = np.argwhere(np.abs(u - p) > tol)
    if len(bad) == 0:
        return None
    r, c = (int(x) for x in bad[0])
    return r, c, complex(u[r, c]), complex(p[r, c])


# --------------------------------------------------------------------------
# Cross-model consistency

#: Single-qubit state V^level |0>, one per Z4 level.
_LEVEL_VECTORS = [np.linalg.matrix_power(V_MATRIX, k) @ np.array([1, 0], dtype=complex) for k in range(4)]


def check_model_consistency(circuit: Circuit, tol: float = DEFAULT_TOL) -> bool:
    """Compare the unitary simulation with the quaternary simulation.

    For every Boolean input x the unitary image of |x> must equal the tensor
    product (over lines a, b, c) of V^level |0> with levels taken from row x
    of the folded quaternary state.  Raises IllegalCircuit if the circuit
    violates the Boolean-control restriction.
    """
    state = CircuitState.identity()
    try:
        for gate in circuit:
            state = apply_gate(state, gate)
    except QuantumControl as exc:
        raise IllegalCircuit(str(exc)) from exc
    u = circuit_unitary(circuit)
    for x in range(N_ROWS):
        levels = state.rows[x]
        expect = _LEVEL_VECTORS[levels[0]]
        for line in range(1, N_LINES):
            expect = np.kron(expect, _LEVEL_VECTORS[levels[line]])
        if float(np.max(np.abs(u[:, x] - expect))) > tol:
            return False
    return True


# --------------------------------------------------------------------------
# Batch verification

@functools.cache
def _gate_index(topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """By ``Circuit`` code: whether the topology allows the gate, the gate's
    ``gate_unitary`` scaled to Gaussian-integer entries, and whether that
    doubled it (V and V+; one more False entry stands for padding)."""
    allowed = np.array([topology.allows_gate(g) for g in GATES])
    doubled = np.array([g.kind in ("V", "V+") for g in GATES] + [False])
    mats = np.stack([gate_unitary(g) for g in GATES])
    mats[doubled[:-1]] *= 2
    if not np.array_equal(mats, mats.round()):
        raise InternalError("internal error: a scaled gate unitary left Z[i]")
    for arr in (allowed, mats, doubled):
        arr.setflags(write=False)
    return allowed, mats, doubled


@functools.cache
def _complex64_mats(topology: Topology) -> np.ndarray:
    """``_gate_index``'s scaled gate unitaries in complex64 (read-only)."""
    mats = _gate_index(topology)[1].astype(np.complex64)
    mats.setflags(write=False)
    return mats


def verify_witnesses(
    witnesses: Iterable[tuple[Sequence[int], Circuit]],
    topology: Topology = FULL_TOPOLOGY,
) -> tuple[int, tuple[int, ...] | None]:
    """Check many (function, circuit) pairs exactly, in one batch.

    Returns (number checked, first failing function or None), where the
    first failure is the shortest failing circuit, then the earliest given.
    Every function is validated (InvalidFunction) and every gate must be a
    gate of ``topology`` (TopologyViolation) before any product is taken.
    There is no tolerance (see ``_first_failure``); a circuit with more
    than ``MAX_EXACT_V_GATES`` V/V+ gates raises ValueError.  A batch of at
    most ``_COMPLEX64_V_GATES`` V/V+ gates per circuit is multiplied out in
    complex64, any other in complex128.  Each product extends at most
    ``_PRODUCT_BLOCK`` prefixes, small enough that OpenBLAS keeps it on the
    calling thread: a call never waits on its thread pool.
    """
    allowed, mats, doubled = _gate_index(topology)
    pairs = list(witnesses)
    if not pairs:
        return 0, None
    funcs = [func for func, _ in pairs]
    codes = [circuit.codes for _, circuit in pairs]
    flat = np.frombuffer(b"".join(codes), dtype=np.uint8)
    lengths = np.fromiter(map(len, codes), dtype=np.int64, count=len(codes))
    outside = np.flatnonzero(~allowed[flat])
    if len(outside):
        at = int(outside[0])
        row = int(np.searchsorted(np.cumsum(lengths), at, side="right"))
        raise TopologyViolation(
            f"{GATES[flat[at]]} is not a gate of the {topology.slug} topology "
            f"(in the circuit for {funcs[row]!r})"
        )
    ids = np.full((len(codes), int(lengths.max())), len(mats), dtype=np.int64)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = flat
    ranks = np.fromiter(map(function_rank, funcs), dtype=np.int64, count=len(funcs))
    funcs_array = rank_tables().outputs[ranks]
    n_doubled = doubled[ids].sum(axis=1)
    if n_doubled.max() > MAX_EXACT_V_GATES:
        raise ValueError(
            f"a circuit with {n_doubled.max()} V/V+ gates is past the exact range "
            f"of verify_witnesses ({MAX_EXACT_V_GATES}); use check_realizes"
        )
    if n_doubled.max() <= _COMPLEX64_V_GATES:
        mats = _complex64_mats(topology)
    bad = _first_failure(funcs_array, ids, lengths, mats, np.ldexp(1.0, n_doubled))
    return len(funcs), None if bad is None else tuple(funcs_array[bad].tolist())


def _first_failure(
    funcs: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
    mats: np.ndarray, scale: np.ndarray,
) -> int | None:
    """Index of the shortest, then first, row whose circuit does not realize
    its function, or None.

    Row i's circuit is ``ids[i, :lengths[i]]``, ids into ``mats``: the gate
    unitaries scaled so that every entry is a Gaussian integer (V and V+
    doubled).  A product with k doubled gates is 2^k times a unitary, so its
    entries are Gaussian integers of modulus at most 2^k, which the dtype of
    ``mats`` must hold exactly, with the partial sums of a step (see the
    module docstring); the products are taken in that dtype.  Row i passes
    iff its product equals ``scale[i]`` = 2^k times its permutation matrix.

    The circuits are multiplied out depth by depth, each distinct prefix
    once: the (prefix, gate) pairs of depth d are made unique, sorted by
    gate, and each gate's unitary multiplies the matrices of the prefixes it
    extends, ``_PRODUCT_BLOCK`` prefixes per product.  Only one depth's
    matrices are kept, laid out as (row, prefix, column).  A row is checked
    at its last depth: the entries of its permutation, and the nonzero count
    of each prefix that ends there, taken once per distinct prefix.
    """
    cols = np.arange(N_ROWS)
    prefix = np.zeros(len(funcs), dtype=np.int64)   # each row's prefix at this depth
    products = np.eye(N_ROWS, dtype=mats.dtype)[:, None, :]
    for depth in range(ids.shape[1] + 1):
        if depth:
            live = np.flatnonzero(lengths >= depth)
            pairs, inverse = np.unique(
                ids[live, depth - 1] * products.shape[1] + prefix[live], return_inverse=True
            )
            gate, parent = np.divmod(pairs, products.shape[1])
            starts = np.flatnonzero(np.diff(gate, prepend=-1))
            step = np.empty((N_ROWS, len(pairs) * N_ROWS), dtype=mats.dtype)
            for a, end in zip(starts.tolist(), [*starts[1:].tolist(), len(pairs)]):
                for lo in range(a, end, _PRODUCT_BLOCK):
                    hi = min(lo + _PRODUCT_BLOCK, end)
                    extended = np.take(products, parent[lo:hi], axis=1).reshape(N_ROWS, -1)
                    np.matmul(mats[gate[a]], extended, out=step[:, lo * N_ROWS:hi * N_ROWS])
            products = step.reshape(N_ROWS, len(pairs), N_ROWS)
            prefix[live] = inverse
        ending = np.flatnonzero(lengths == depth)
        if len(ending):
            at = prefix[ending]
            hits = products[funcs[ending], at[:, None], cols]
            ends, end_of = np.unique(at, return_inverse=True)
            ok = (hits == scale[ending, None]).all(axis=1) & (
                np.count_nonzero(products[:, ends], axis=(0, 2))[end_of] == N_ROWS
            )
            if not ok.all():
                return int(ending[np.argmin(ok)])
    return None

