"""Quaternary truth-table model of 3-line reversible/quantum circuits.

Circuits act on three lines named a, b, c.  Truth-table rows are indexed by
the input pattern i = 4a + 2b + c (line a is the most significant bit).  Under
the Boolean-control restriction every line, on every row, carries one of four
values forming the cyclic group Z4:

    level 0 -> |0>        level 1 -> V|0>
    level 2 -> |1>        level 3 -> V+|0>

A controlled-V gate adds 1 (mod 4) to the target level wherever its control is
Boolean 1, controlled-V+ adds 3, and NOT/CNOT/TOF add 2.  The low bit of a
level is its "quantum flag", the high bit its Boolean projection; a state is
Boolean when all 24 flags are zero, in which case its rows spell out a
permutation of 0..7.

Controlled gates may only be applied while the control line is Boolean on
every row (:class:`~ncvsynth.errors.QuantumControl` otherwise), which is what
keeps the model closed over these four values.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InternalError, InvalidFunction, QuantumControl, TopologyViolation

N_LINES = 3
N_ROWS = 8
LINE_NAMES = "abc"

NCV_KINDS = ("NOT", "CNOT", "V", "V+")
NCT_KINDS = ("NOT", "CNOT", "TOF")
#: Control count of each gate kind, in gate-kind order.
ARITY = {"NOT": 0, "CNOT": 1, "V": 1, "V+": 1, "TOF": 2}
GATE_KINDS = tuple(ARITY)

#: Additive action of each gate kind on the target level, mod 4.
KIND_SHIFT = {"NOT": 2, "CNOT": 2, "V": 1, "V+": 3, "TOF": 2}


@dataclass(frozen=True)
class Gate:
    """A placed library gate: kind, control line(s) and target line.

    Lines are integers 0, 1, 2 standing for a, b, c.  NOT has no controls,
    CNOT/V/V+ one, TOF two.
    """

    kind: str
    target: int
    controls: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = ARITY[self.kind]
        if len(self.controls) != arity:
            raise ValueError(f"{self.kind} takes {arity} control(s), got {self.controls}")
        lines = (self.target, *self.controls)
        if any(l not in (0, 1, 2) for l in lines):
            raise ValueError(f"line ids must be 0..2, got {lines}")
        if self.target in self.controls or len(set(self.controls)) != len(self.controls):
            raise ValueError("control and target lines must be distinct")
        object.__setattr__(self, "controls", tuple(sorted(self.controls)))
        # Hashed once, from ints alone (the same in every process), for the
        # gate-keyed dicts that look gates up by value.
        key = (GATE_KINDS.index(self.kind), self.target, self.controls)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @property
    def placement(self) -> tuple[tuple[int, ...], int]:
        """(control set, target) pair, ignoring the gate kind."""
        return (self.controls, self.target)

    def lines(self) -> tuple[int, ...]:
        return (*self.controls, self.target)

    def inverse(self) -> "Gate":
        """NOT/CNOT/TOF are self-inverse; V and V+ invert to each other."""
        swap = {"V": "V+", "V+": "V"}
        return Gate(swap.get(self.kind, self.kind), self.target, self.controls)

    def __str__(self) -> str:
        names = " ".join(LINE_NAMES[l] for l in (*self.controls, self.target))
        return f"{self.kind} {names}"


def NOT(target: int) -> Gate:
    return Gate("NOT", target)


def CNOT(control: int, target: int) -> Gate:
    return Gate("CNOT", target, (control,))


def V(control: int, target: int) -> Gate:
    return Gate("V", target, (control,))


def VPLUS(control: int, target: int) -> Gate:
    return Gate("V+", target, (control,))


def TOF(control1: int, control2: int, target: int) -> Gate:
    return Gate("TOF", target, (control1, control2))


class Circuit:
    """An ordered gate list with a library tag ("NCV" or "NCT").

    A circuit is stored as ``codes``, one byte per gate: the gate's index in
    ``GATES``.  ``gates`` builds the Gate tuple on each access, and
    iteration maps the codes directly.  Circuits are immutable and compare
    and hash by (codes, library)."""

    __slots__ = ("codes", "library")

    def __init__(self, gates: Iterable[Gate], library: str = "NCV") -> None:
        gates = tuple(gates)
        if library not in ("NCV", "NCT"):
            raise ValueError(f"unknown library {library!r}")
        allowed = NCV_KINDS if library == "NCV" else NCT_KINDS
        for g in gates:
            if g.kind not in allowed:
                raise ValueError(f"{g.kind} gate is not in the {library} library")
            if not isinstance(g, Gate):
                raise TypeError(f"a circuit holds Gate objects, not {g!r}")
        object.__setattr__(self, "codes", bytes([GATE_CODES[g] for g in gates]))
        object.__setattr__(self, "library", library)

    @classmethod
    def _of_codes(cls, codes: bytes, library: str) -> "Circuit":
        """A circuit of gate codes already known to be in ``library``, built
        without the per-gate check of ``__init__``."""
        circuit = object.__new__(cls)
        _set_codes(circuit, codes)
        _set_library(circuit, library)
        return circuit

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(map(GATES.__getitem__, self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Gate]:
        return map(GATES.__getitem__, self.codes)

    def __str__(self) -> str:
        return "; ".join(map(str, self)) if self.codes else "(empty)"

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(gates={self.gates!r}, library={self.library!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.codes == other.codes and self.library == other.library

    def __hash__(self) -> int:
        return hash((self.codes, self.library))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (type(self), (self.gates, self.library))


# The slot descriptors' setters, which ``_of_codes`` calls per witness.
_set_codes, _set_library = Circuit.codes.__set__, Circuit.library.__set__


#: The largest gate weight a ``CostMetric`` takes.  A cost is a sum of gate
#: weights, so under the cap any circuit of fewer than 2**31 gates costs less
#: than 2**63 and fits int64.  Optimal circuits are far shorter: every
#: function has an NCV circuit of at most 14 gates on the full topology and
#: 23 on the path (the largest ncv-111 costs), so no optimal NCV cost
#: exceeds 23 x ``MAX_WEIGHT``.
MAX_WEIGHT = 2 ** 32

_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)
_DECIMAL = re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*", re.ASCII)


def parse_int(text: str) -> int:
    """The integer that ``text`` writes: an optional sign and ASCII digits,
    with spaces around them.  ValueError for anything else, such as the
    ``1_0`` and the digits of other scripts that ``int`` also reads."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_decimal(text: str) -> float:
    """The number that ``text`` writes in decimal: an optional sign, ASCII
    digits with at most one point, an optional exponent of ASCII digits,
    and spaces around them.  ValueError for anything else, such as ``nan``,
    ``inf``, ``1_0`` and the digits of other scripts that ``float`` also
    reads."""
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


@dataclass(frozen=True)
class CostMetric:
    """Linear gate-cost metric: weights for NOT, CNOT, V and V+, each an
    integer in 0..``MAX_WEIGHT`` (ValueError otherwise).

    The built-in metrics all use w_v == w_vplus, which makes circuit cost
    invariant under inversion and under the global V <-> V+ interchange.
    """

    w_not: int
    w_cnot: int
    w_v: int
    w_vplus: int
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        for w in (self.w_not, self.w_cnot, self.w_v, self.w_vplus):
            if not isinstance(w, int) or w < 0:
                raise ValueError("metric weights must be nonnegative integers")
            if w > MAX_WEIGHT:
                raise ValueError(f"metric weight {w} is above the cap {MAX_WEIGHT}")

    def weight(self, gate: Gate) -> int:
        try:
            return {
                "NOT": self.w_not,
                "CNOT": self.w_cnot,
                "V": self.w_v,
                "V+": self.w_vplus,
            }[gate.kind]
        except KeyError:
            raise ValueError(f"{gate.kind} has no weight under an NCV metric") from None

    @property
    def slug(self) -> str:
        """Filesystem-friendly identifier used for cache file names."""
        if self.name:
            return self.name
        slug = f"custom-{self.w_not}-{self.w_cnot}-{self.w_v}"
        if self.w_v != self.w_vplus:
            slug += f"-{self.w_vplus}"
        return slug

    @classmethod
    def parse(cls, text: str) -> "CostMetric":
        """Parse a preset name ("ncv-111") or "custom:x,y,z" weights.

        Custom weights assign z to both V and V+.
        """
        key = text.strip().lower()
        if key in METRICS:
            return METRICS[key]
        if key.startswith("custom:"):
            parts = key[len("custom:"):].split(",")
            if len(parts) != 3:
                raise ValueError(f"custom metric needs 3 weights, got {text!r}")
            try:
                x, y, z = (parse_int(p) for p in parts)
            except ValueError:
                raise ValueError(f"bad custom metric weights in {text!r}") from None
            return cls(x, y, z, z)
        raise ValueError(f"unknown metric {text!r}")


NCV_111 = CostMetric(1, 1, 1, 1, name="ncv-111")
NCV_012 = CostMetric(0, 1, 2, 2, name="ncv-012")
NCV_155 = CostMetric(1, 5, 5, 5, name="ncv-155")
METRICS = {"ncv-111": NCV_111, "ncv-012": NCV_012, "ncv-155": NCV_155}


def _normalize_pair(pair: Iterable[int]) -> tuple[int, int]:
    a, b = sorted(pair)
    if a == b or a not in (0, 1, 2) or b not in (0, 1, 2):
        raise ValueError(f"bad line pair {pair!r}")
    return (a, b)


@dataclass(frozen=True)
class Topology:
    """Set of unordered line pairs on which 2-qubit gates may be placed."""

    pairs: frozenset[tuple[int, int]]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(_normalize_pair(p) for p in self.pairs))

    def allows(self, line_x: int, line_y: int) -> bool:
        return _normalize_pair((line_x, line_y)) in self.pairs

    def allows_gate(self, gate: Gate) -> bool:
        lines = gate.lines()
        return all(self.allows(x, y) for x, y in itertools.combinations(lines, 2))

    def is_connected(self) -> bool:
        seen = {0}
        grew = True
        while grew:
            grew = False
            for x, y in self.pairs:
                if (x in seen) != (y in seen):
                    seen.update((x, y))
                    grew = True
        return len(seen) == N_LINES

    def line_symmetries(self) -> tuple[tuple[int, int, int], ...]:
        """Line permutations mapping every allowed pair to an allowed pair."""
        sym = []
        for perm in itertools.permutations(range(N_LINES)):
            mapped = {_normalize_pair((perm[x], perm[y])) for x, y in self.pairs}
            if mapped == self.pairs:
                sym.append(perm)
        return tuple(sym)

    @property
    def slug(self) -> str:
        return self.name or "-".join(
            "".join(LINE_NAMES[l] for l in p) for p in sorted(self.pairs)
        )


FULL_TOPOLOGY = Topology(frozenset({(0, 1), (0, 2), (1, 2)}), name="full")
PATH_TOPOLOGY = Topology(frozenset({(0, 1), (1, 2)}), name="path")
TOPOLOGIES = {"full": FULL_TOPOLOGY, "path": PATH_TOPOLOGY}


# --------------------------------------------------------------------------
# Truth-table states

Row = tuple[int, int, int]


def bit_offset(row: int, line: int) -> int:
    """Bit position of a truth-table entry in the packed 48-bit state key.

    Each entry takes two bits starting at 2*(3*row + line): the low bit is the
    quantum flag, the high bit the Boolean projection.
    """
    return 2 * (N_LINES * row + line)


@dataclass(frozen=True)
class CircuitState:
    """Quaternary truth table: 8 rows of 3 Z4 levels, one per line."""

    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(v) for v in r) for r in self.rows)
        if len(rows) != N_ROWS or any(len(r) != N_LINES for r in rows):
            raise ValueError("a state needs 8 rows of 3 levels")
        if any(v not in (0, 1, 2, 3) for r in rows for v in r):
            raise ValueError("levels must be in 0..3")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls) -> "CircuitState":
        rows = []
        for i in range(N_ROWS):
            rows.append((2 * ((i >> 2) & 1), 2 * ((i >> 1) & 1), 2 * (i & 1)))
        return cls(tuple(rows))

    @property
    def is_boolean(self) -> bool:
        return all(v & 1 == 0 for row in self.rows for v in row)

    def boolean_projection(self) -> tuple[int, ...]:
        """Row outputs read from the high bits, whatever the flags say."""
        return tuple(
            4 * (r[0] >> 1) + 2 * (r[1] >> 1) + (r[2] >> 1) for r in self.rows
        )

    def permutation(self) -> tuple[int, ...]:
        """The realized reversible function; only defined for Boolean states."""
        if not self.is_boolean:
            raise ValueError("state carries quantum values; no Boolean function")
        return self.boolean_projection()

    def pack(self) -> int:
        """Canonical 48-bit key: the packed levels of all 24 entries."""
        key = 0
        for row in range(N_ROWS):
            for line in range(N_LINES):
                key |= self.rows[row][line] << bit_offset(row, line)
        return key

    @classmethod
    def unpack(cls, key: int) -> "CircuitState":
        rows = []
        for row in range(N_ROWS):
            rows.append(tuple((key >> bit_offset(row, line)) & 3 for line in range(N_LINES)))
        return cls(tuple(rows))


_ROW_SET = frozenset(range(N_ROWS))


def validate_permutation(values: Sequence[int]) -> tuple[int, ...]:
    """Return ``values`` as a tuple of ints, or raise InvalidFunction.

    Entries must be integers (Python or numpy, through ``operator.index``):
    ``7.9`` or ``"7"`` is not taken for 7."""
    try:
        perm = tuple(map(operator.index, values))
    except TypeError:
        raise InvalidFunction(f"not a permutation of 0..7: {values!r}") from None
    if len(perm) != N_ROWS or set(perm) != _ROW_SET:
        raise InvalidFunction(f"not a permutation of 0..7: {values!r}")
    return perm


def invert_function(perm: Sequence[int]) -> tuple[int, ...]:
    perm = validate_permutation(perm)
    inv = [0] * N_ROWS
    for i, out in enumerate(perm):
        inv[out] = i
    return tuple(inv)


# --------------------------------------------------------------------------
# Gate application

def apply_gate(state: CircuitState, gate: Gate) -> CircuitState:
    """Apply one gate to every truth-table row.

    The target level gains KIND_SHIFT[kind] mod 4 in the rows where all
    controls are Boolean 1.  Controls must be Boolean-valued on every row;
    otherwise QuantumControl is raised and the state is left untouched.  The
    result's Boolean projection is asserted to remain a permutation.
    """
    for c in gate.controls:
        for row in state.rows:
            if row[c] & 1:
                raise QuantumControl(
                    f"{gate} has a non-Boolean control value in some row"
                )
    shift = KIND_SHIFT[gate.kind]
    rows = []
    for row in state.rows:
        if all(row[c] == 2 for c in gate.controls):
            new = list(row)
            new[gate.target] = (new[gate.target] + shift) & 3
            rows.append(tuple(new))
        else:
            rows.append(row)
    result = CircuitState(tuple(rows))
    if sorted(result.boolean_projection()) != list(range(N_ROWS)):
        raise InternalError(
            "internal error: Boolean projection stopped being a permutation"
        )
    return result


def apply_circuit(state: CircuitState, circuit: Circuit) -> CircuitState:
    for gate in circuit:
        state = apply_gate(state, gate)
    return state


def realized_function(circuit: Circuit) -> tuple[int, ...]:
    """Fold the circuit from the identity state and read off the permutation."""
    return apply_circuit(CircuitState.identity(), circuit).permutation()


def circuit_cost(circuit: Circuit, metric: CostMetric) -> int:
    """Sum of per-gate weights (NCV circuits only)."""
    return sum(metric.weight(g) for g in circuit)


def invert_circuit(circuit: Circuit) -> Circuit:
    """Reverse the gate order and invert each gate; realizes the inverse map."""
    return Circuit(tuple(g.inverse() for g in reversed(circuit.gates)), circuit.library)


def vswap(circuit: Circuit) -> Circuit:
    """Interchange every V with V+ and vice versa: each gate becomes its
    inverse, in place.

    For a circuit realizing a Boolean function the realized function is
    unchanged, and the cost is unchanged whenever w_v == w_vplus.
    """
    return Circuit(tuple(g.inverse() for g in circuit.gates), circuit.library)


# --------------------------------------------------------------------------
# Line relabeling

LinePerm = tuple[int, int, int]

LINE_PERMUTATIONS: tuple[LinePerm, ...] = tuple(itertools.permutations(range(N_LINES)))


def row_permutation(perm: LinePerm) -> tuple[int, ...]:
    """Row-index permutation induced by renaming line l to perm[l]."""
    out = []
    for i in range(N_ROWS):
        bits = ((i >> 2) & 1, (i >> 1) & 1, i & 1)
        j = 0
        for line in range(N_LINES):
            j |= bits[line] << (2 - perm[line])
        out.append(j)
    return tuple(out)


def _inverse_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(rows.index(j) for j in range(len(rows)))


#: Row permutation and its inverse for each line renaming.
_ROW_PERMS = {
    perm: (row_permutation(perm), _inverse_rows(row_permutation(perm)))
    for perm in LINE_PERMUTATIONS
}


def relabel_function(func: Sequence[int], perm: LinePerm) -> tuple[int, ...]:
    """Conjugate a reversible function by a line renaming."""
    func = validate_permutation(func)
    try:
        rp, rp_inv = _ROW_PERMS[tuple(perm)]
    except KeyError:
        raise ValueError(f"not a permutation of the lines 0..2: {perm!r}") from None
    # out[rp[i]] = rp[func[i]], read off by output row j = rp[i].
    return tuple([rp[func[i]] for i in rp_inv])


def relabel_circuit(
    circuit: Circuit, perm: LinePerm, topology: Topology = FULL_TOPOLOGY
) -> Circuit:
    """Rename every gate's lines; reject placements the topology forbids."""
    gates = []
    for g in circuit.gates:
        new = Gate(g.kind, perm[g.target], tuple(perm[c] for c in g.controls))
        if not topology.allows_gate(new):
            raise TopologyViolation(f"{new} uses a pair outside {topology.slug}")
        gates.append(new)
    return Circuit(tuple(gates), circuit.library)


# --------------------------------------------------------------------------
# Gate enumeration

#: One shared Gate object per placed gate, so that gate-keyed lookups of
#: enumerated gates match by identity before comparing fields.
_interned_gate = functools.cache(Gate)


@functools.cache
def enumerate_gates(topology: Topology, library: str = "NCV") -> tuple[Gate, ...]:
    """All placeable gates of a library, in canonical order.

    Canonical order is NOT by target, then CNOT, V, V+ (or TOF for NCT) each
    by (control(s), target) lexicographic; it fixes tie-breaking everywhere.
    Under the full topology the NCV library has 21 gates, under the a-b/b-c
    path 15.  TOF placements require all three pairwise interactions.  Built
    once per (topology, library).
    """
    if library not in ("NCV", "NCT"):
        raise ValueError(f"unknown library {library!r}")
    gates = [_interned_gate("NOT", t) for t in range(N_LINES)]
    kinds = ("CNOT", "V", "V+") if library == "NCV" else ("CNOT",)
    for kind in kinds:
        for control in range(N_LINES):
            for target in range(N_LINES):
                if control != target and topology.allows(control, target):
                    gates.append(_interned_gate(kind, target, (control,)))
    if library == "NCT":
        for c1, c2, target in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            gate = _interned_gate("TOF", target, (c1, c2))
            if topology.allows_gate(gate):
                gates.append(gate)
    return tuple(gates)


#: Every gate on three lines, by its ``Circuit`` code: the 21 NCV gates of
#: the full topology in canonical order, then the 3 Toffolis.
GATES: tuple[Gate, ...] = (
    enumerate_gates(FULL_TOPOLOGY, "NCV") + enumerate_gates(FULL_TOPOLOGY, "NCT")[-3:]
)
GATE_CODES: dict[Gate, int] = {g: code for code, g in enumerate(GATES)}


# --------------------------------------------------------------------------
# Functions as ranks

N_FUNCTIONS = 40320


class RankTables(NamedTuple):
    """Every reversible function by its rank in 0..40319.

    The rank is the lexicographic index of the output tuple, so ascending
    ranks are the serialization order.  All arrays are read-only.
    """

    #: (rank, row) -> output of that row, uint8
    outputs: np.ndarray
    #: rank -> the 8 outputs read as a big-endian uint64, strictly ascending
    codes: np.ndarray
    #: (rank, j) -> rank of the image under LINE_PERMUTATIONS[j]
    relabeled: np.ndarray

    def ranks_of_codes(self, codes: np.ndarray) -> np.ndarray:
        """Ranks of functions given by their uint64 codes."""
        return np.searchsorted(self.codes, codes).astype(np.int32)

    def function(self, rank: int) -> tuple[int, ...]:
        return tuple(self.outputs[rank].tolist())


@functools.cache
def rank_tables() -> RankTables:
    """The rank tables, built on first use (a few hundredths of a second).

    Built column by column in small dtypes, so that building them adds little
    to peak memory."""
    outputs = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(N_ROWS))),
        dtype=np.uint8, count=N_FUNCTIONS * N_ROWS,
    ).reshape(N_FUNCTIONS, N_ROWS)
    codes = outputs.view(">u8")[:, 0].astype(np.uint64)
    relabeled = np.empty((N_FUNCTIONS, len(LINE_PERMUTATIONS)), dtype=np.int32)
    image = np.empty_like(outputs)
    for j, perm in enumerate(LINE_PERMUTATIONS):
        rp = np.array(_ROW_PERMS[perm][0], dtype=np.uint8)
        for row in range(N_ROWS):
            image[:, rp[row]] = rp[outputs[:, row]]
        relabeled[:, j] = np.searchsorted(codes, image.view(">u8")[:, 0])
    tables = RankTables(outputs, codes, relabeled)
    for arr in tables:
        arr.setflags(write=False)
    return tables


@functools.cache
def _half_ranks() -> tuple[dict[bytes, tuple[int, int]], dict[bytes, tuple[int, int]]]:
    """Tables of the 1,680 arrangements of 4 distinct outputs, keyed by their
    bytes: as the first four outputs of a function and as the last four.
    Each entry holds that half's share of the rank and the bit mask of its
    outputs.  Output i adds (its Lehmer digit) x (7 - i)!; the digit counts
    the smaller outputs after i, which for i < 4 are the smaller ones not
    before i, so each half's share reads that half only."""
    weights = [math.factorial(N_ROWS - 1 - i) for i in range(N_ROWS)]
    head, tail = {}, {}
    for half in itertools.permutations(range(N_ROWS), N_ROWS // 2):
        mask = sum(1 << out for out in half)
        head[bytes(half)] = (sum(
            (out - sum(prior < out for prior in half[:i])) * weights[i]
            for i, out in enumerate(half)
        ), mask)
        tail[bytes(half)] = (sum(
            sum(later < out for later in half[i + 1:]) * weights[4 + i]
            for i, out in enumerate(half)
        ), mask)
    return head, tail


class _Interned(NamedTuple):
    functions: tuple[tuple[int, ...], ...]  # rank -> tuple
    ranks: dict[tuple[int, ...], int]       # tuple -> rank


#: Built by the first ``function_tuples`` call and published in one
#: assignment, so a reader sees both halves or neither.  A tuple of a build
#: that lost a race between threads fails ``function_rank``'s identity test
#: and is ranked the general way.
_interned: _Interned | None = None


def function_tuples() -> tuple[tuple[int, ...], ...]:
    """Every function as a tuple, in rank order: the process's interned
    tuples, built on the first call (not at import) and kept from then on.
    ``function_rank`` ranks these very objects by identity in O(1)."""
    global _interned
    interned = _interned
    if interned is None:
        functions = tuple(itertools.permutations(range(N_ROWS)))
        interned = _Interned(functions, dict(zip(functions, range(N_FUNCTIONS))))
        _interned = interned
    return interned.functions


def function_rank(func: Sequence[int]) -> int:
    """Rank of a function in 0..40319; InvalidFunction for anything that
    ``validate_permutation`` rejects.

    A tuple of ``function_tuples`` is ranked by identity in O(1): the map
    finds equal tuples too, such as one ending in ``7.0``, but only the
    interned object itself passes.  Anything else takes the general path:
    the 8 outputs, as bytes, are looked up half by half in ``_half_ranks``;
    a function is valid iff both halves are found and their masks are
    disjoint, and its rank is the sum of their shares."""
    interned = _interned
    if interned is not None and type(func) is tuple:
        try:
            rank = interned.ranks.get(func)
        except TypeError:  # an unhashable entry
            rank = None
        if rank is not None and interned.functions[rank] is func:
            return rank
    values = func
    try:
        if type(values) is not tuple:
            # bytes() of an ndarray (or any buffer) copies its memory, not its values
            values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        data = bytes(values)
    except (TypeError, ValueError):
        data = b""
    head, tail = _half_ranks()
    first, last = head.get(data[:4]), tail.get(data[4:])
    if first is None or last is None or first[1] & last[1]:
        raise InvalidFunction(f"not a permutation of 0..7: {func!r}")
    return first[0] + last[0]
