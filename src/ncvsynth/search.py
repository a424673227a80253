"""Cost-bucketed uniform-cost search over packed quaternary states.

The search runs Dijkstra with a bucket queue (Dial's structure) from the
identity truth table.  States are 48-bit packed keys (8 rows x 3 lines x 2
bits); a state is settled the first time its bucket is drained at its
recorded cost, so the first recorded cost of a reversible function is its
true minimum.  Zero-weight gates re-insert into the current bucket, which is
processed to exhaustion.

Costs are (primary, secondary) integer pairs, compared lexicographically.
A plain metric gives every gate secondary weight 0; a secondary metric
picks among the primary-optimal circuits.  Both parts of every weight are
>= 0 (ValueError otherwise), so a cost never falls along a path and
Dijkstra is sound.  A heap orders the buckets, and a bucket is one
(primary, secondary) cost.

Expansion is vectorized with numpy and shares work per placement: the
parents a gate may extend (its control lines Boolean, and reduction (1)
below) and their control bits moved onto the target line are selected once
per (controls, target) placement, for the CNOT, V and V+ gates on it.  The
uint64 candidates of every gate weight are canonicalized in one pass and
probed against a window of the settled states with one sorted-array search,
then cut into one batch per weight, each put in (parent settle index, gate
enumeration index) order by a stable sort.  Batches join their bucket in
settle order, so among equal-cost paths to a state, the one a scalar
queue-based search would consider first is the one of least position in
the drained bucket; a drain sorts the bucket by key and takes, per key, its
least position.  That path wins, and within a bucket states settle in
packed-key order, which makes every witness reproducible.  A drain checks
that each new state's Boolean projection is a permutation and decodes the
Boolean states to function ranks through 4096-entry tables indexed by the
12 bits of two adjacent rows (four lookups per key): one gives the rows'
one-hot occupancy, another their two code bytes (a third gives their
classes, for the input masks below).

The window holds the keys of the states settled at primary cost ``c -
span`` or more, where c is the bucket's primary cost and ``span`` the
heaviest primary gate weight; states below it are dropped from the probe
on each new bucket.  That misses no settled state a candidate can meet.  A
state's settled cost is its distance from the identity, and its primary
part the primary distance: Dijkstra settles distances, and reduction (1)
below preserves every state's distance under the weights ``_search_plan``
leaves it on for.  The gate list holds the inverse of each of its gates
(ValueError otherwise), and the symmetries of reduction (2) map gates to
gates of equal weight, so the search graph is undirected: if a candidate
g(p) of a state p settled at primary cost c was itself settled, at primary
cost d, then c <= d + w(g^-1), so d >= c - span.  A candidate is probed
when it is made, and again at its own bucket, of cost c + w(g), if a drain
has settled a state since: that catches the states settled after it was
made, whose costs are at least c.
A drain whose batches were all made after the latest settle (under
ncv-111, every drain) skips the probe: the window has since only been
trimmed, which removes keys, so the probe could find none of them.

Parallel expansion and drain: a frontier of more than ``_CHUNK`` parents is
expanded in fixed chunks of that many consecutive parents, shared by the
searching thread and, where the process may use a second CPU, one worker
thread (the numpy kernels release the GIL).  A chunk makes one batch per
gate weight, in (parent settle index, gate id) order, and only the
searching thread adds batches to the buckets, in chunk order.  Every parent
of a chunk precedes every parent of the next, so the batches a bucket
receives from one expansion join into the batch an unsplit expansion would
make: witnesses, costs and states visited do not depend on the chunk size
or the number of threads.  The worker reads only its chunk, the window's sorted keys (an array
the search replaces, never mutates, and does not replace while chunks run)
and the read-only orbit and gate tables.  The worker starts at a call's
first split and stops when the call returns, so none outlives it (a
process forked later starts its own).  A drain of more than ``_CHUNK``
candidates is cut into one key range per thread, at the window's
quantiles, so that the bounds depend on the window alone.  Each range, on
either thread, sorts its candidates, takes each key's least bucket
position, probes its own slice of the window, and then writes its slice of
the next window in place: that slice of this window and the range's new
keys, two sorted runs that a stable sort merges.  The ranges join in key
order, which is packed-key order, so the states settle with the winners and
settle indices of an unsplit drain.

Stacked forms for small inputs: ``_candidates`` on at most
``_STACKED_PARENTS`` (128) parents, and ``_least_line_image`` and
``_mask_canonical`` on at most ``_STACKED_KEYS`` (1,024) keys, make one
broadcast over every gate (or symmetry, or (key, least-class row) pair)
where their loops make a few numpy calls per placement (or symmetry, or
row).  Per-call overhead then stops setting the time of a target search's
small frontiers (a median of 4 parents per expansion and 27 keys per
canonicalization), while a settle's bulk drains keep the loops (see
``_STACKED_KEYS``).  They return exactly what the loops do.  A
loop replaces its kept image only by a strictly less one, so it keeps the
first least image in its order (symmetries in ``_least_line_image``'s offer
order; rows ascending, then symmetries, in ``_mask_canonical``).  The
stacked forms list their offers in the same order and take, per key, the
least offer shifted left with its position in the low bits (keys use 48 of
64 bits): the least image, first among equals.  ``_candidates``'s (gate,
parent) matrix, compressed row-major, is in candidate order with each
gate's parents in order.

Plans: what a search derives from its gate list, weights, line symmetries
and reduction switches is built once per such key by ``_search_plan`` and
shared, read-only, by every search of that key: the reductions the weights
leave on, the expansion and orbit tables, the span, the record columns, the
NOT ids and the root's canonical key, sigma and rank.  Budgets
(``max_cost``, ``max_states``) are per call and not in the key.  A plan
that fails to build (ValueError) is not cached.  ``_prefix`` keeps, under
the same key, the log of the drains that the plan's target searches share
(see "Target search" below).

Search reductions (each can be switched off):

1. never extend a state with a gate on the (controls, target) placement of
   a gate that produced it.  A state keeps the set of these placements (a
   uint16 bit set): each candidate of its key in the drain that settled
   it, all of that cost, adds the placement of its gate as the canonical
   state's last gate.  This skips no candidate that could win.  Say gate h
   took q to p's key, canonicalized by sigma, so p = sigma(h)(sigma q) and
   cost(p) = cost(q) + w(h).  A gate g on sigma(h)'s placement composes
   with sigma(h) to the identity, and g(p) = sigma q, of q's canonical key,
   which is settled; or to a gate h' on that placement, and g(p) =
   h'(sigma q), the image under sigma of sigma^-1(h')(q).  q's expansion
   made that candidate (q skips no gate on h's placement, since it made h)
   at cost(q) + w(h') <= cost(p) + w(g), the search turning the reduction
   off for weights under which that fails (such as w_cnot > 2 w_v), and at
   an earlier bucket position, as q settled before p.
   Winners, sigmas, settle indices, witnesses and states visited are
   therefore those of the search without the reduction;
2. search one state per orbit of a cost-preserving symmetry group, and
   record every image of each settled function under the group's line
   relabelings and masks at the same cost.

The group of (2) is the topology's line symmetries (the weights must be
invariant under them, else ValueError), times V <-> V+ conjugation when the
library has V gates and each weighs the same as the V+ gate on its
placement, times the 8 input masks when every NOT weighs (0, 0).  Relabeling
a circuit's lines relabels the quaternary state it reaches; interchanging V
and V+ (``vswap``) conjugates it, level v becoming -v mod 4, which fixes
every Boolean state.  A NOT layer N_m at a circuit's input moves row i of
the state s it reaches to row i ^ m (s o N_m); it commutes with every gate,
and when NOT is free, costs nothing.  The search settles only canonical
states.  Without masks a state's canonical key is its least image; with
them it is the least image whose row 7 holds a row of least class, a row's
class being its counts of level-0 and level-2 entries, which no symmetry
changes: for each such row, the mask that moves it to row 7 (fixed by every
line map), then the line and conjugation images.  Each settled state
stores, beside its predecessor and gate id, the sigma id (line permutation
+ 6 x conjugation + 12 x mask r, the image being the line and conjugation
map's image moved by N_r) of the symmetry that took the raw key (the gate
applied to the predecessor's canonical key) to the canonical one; the
canonical state's last gate, whose placement reduction (1) records, is
then sigma(gate), as a mask moves no gate.  The root is the identity's
canonical key.  States visited, and ``SearchOptions.max_states``, count
these orbit representatives.  Without (2) every state is its own
representative.

Functions are handled by rank (their lexicographic index in 0..40319, see
:func:`~ncvsynth.model.rank_tables`).  At the boundary a table's
``functions()`` yields the process's interned tuples
(:func:`~ncvsynth.model.function_tuples`), which ``function_rank`` ranks by
identity in O(1); they and their rank map stay resident from the first
``functions()`` call on.  Each drained bucket decodes its
settled Boolean keys to ranks in one batch and records, per state in
packed-key order: its own function, then its image under each non-identity
line symmetry in ``line_symmetries()`` order, and with masks these 8 times,
each composed with N_m for m = 0..7.  The first record of a rank wins,
exactly as a function-at-a-time loop in that order would decide.  Per rank
(a target search: for its target alone) the search keeps primary and
secondary cost, settle index and sigma.

When the search ends, one vectorized walk over the predecessor array
extracts the gate-id path of every settle index that a function uses,
composing the sigmas along the way: the j-th gate of a path to state n is
sigma_n o ... o sigma_j applied to the gate stored at state j, and the
path, run after the input NOTs of the mask of sigma_n o ... o sigma_0
(sigma_0 the root's), realizes its canonical state.  Each function's
witness is then its state's path with every gate id mapped through the
function's line relabeling, by one uint8 (sigma x gate id) map, after the
input NOTs of the mask of the function's sigma o the path's: at most 3 NOT
gates, of weight 0.  The per-state arrays are then dropped.

A gate id is the gate's ``Circuit`` code, its index in ``model.GATES``,
whatever the gate list.  A table holds every function: row i of each of
its arrays is the function of rank i.  The arrays are the
``witness_paths`` (primary cost, padded gate-id matrix, lengths) and the
secondary costs; ``costs`` is the primary cost array.  ``witness`` ranks
its function (in O(1) for an interned tuple of ``functions()``) and slices
its row from the matrix's bytes, and bulk consumers (the JSONL writer,
``analysis.compare``, the CLI's cache) read the whole matrix without
building a Circuit per function.  ``synthesize_one`` builds no table: it
reads its circuit from the one row the search returns for its target.

Target search: ``synthesize_one`` runs the search above, a stepper that
yields after each drain and expands that drain's states only when resumed,
and prunes it with a ball around the target read off its own settled
states.  Two facts make the ball exact.  A circuit run from the Boolean
state of a function T reaches the state s it reaches from the identity
with its rows moved: row i of the first is row T(i) of s, written s o T.
And ``vswap`` of a circuit reaches the conjugate conj(s) of the state the
circuit reaches, every level v becoming -v mod 4.  A gate's inverse weighs
what ``vswap`` of the gate weighs, so a key k's cost to the target is the
search's cost of conj(k o T^-1), and the ball of radius c around the
target's orbit is the set of canonical keys of conj(s o T'), for each
state s settled at cost at most c and each relabeling T' of T in the
group, at the cost of s.  Where conjugation is in the group,
canonicalizing undoes conj; where it is not (V and V+ weigh differently,
or reduction (2) is off), conj is applied.  With masks, T' also runs over
the output-masked N_m o T': a settled orbit holds s o N_m, and s o N_m o
T' = s o (N_m o T'), while an input mask of T' is canonicalized away.
After each drain, of cost c, the ball takes in its keys' images not yet in
it at cost c, so it holds every key of cost to the target below c, each at
its exact cost.  The first drain that settles a key inside the ball gives
the meeting bound U = c + h, the cost of a circuit through that key; the
ball then stops growing, and ``reach`` = c.  From then on a drain settles a
fresh key of cost g only if g + h <= U, where h is the key's ball cost or,
outside the ball, ``reach`` (every key of cost to the target below it is
inside).  This is a two-sided search whose two radii are equal and whose
backward half is the forward half's image.  h never exceeds a key's cost to
the target and h(p) <= w(g) + h(g(p)) for every gate, so the winner of a
kept state is kept, and as U >= C* (the target's optimal cost) so is every
state on an optimal path to the target.  A dropped key lies on no such
path, and the kept states settle in the same drains, in the same relative
bucket positions and with the same winners as in a search without the ball
(reduction (1) skips no candidate that could win, whichever candidates of a
state the ball keeps): the target's winners, sigmas and record, and so its
witness, are bit-for-bit unchanged.  A target's witness is therefore the
one the unpruned search from the identity records for it, which is what
the prefix log below runs.  The target search compares primary costs; its
secondary weights are 0.

The prefix: until a target search meets its ball, ``keep`` is unset and
nothing it drains or expands depends on the target, so every target search
of a plan makes the same drains up to its meeting drain.  ``_prefix`` logs
them once per plan key, append-only: per drain its cost, keys and settle
indices, and the search right after its expansion.  The log runs the
unpruned search, so it also records, once per plan, the functions its
drains settle: per rank, one int8 entry naming the root or the drain that
records the function first, by the record rule of a search of every
function.  A request without a budget whose target the log records reads
its witness from the log: the target's first record in that entry, by the
target search's rule, and the path to that state over the log's settled
records.  That is the replay's witness bit for bit: in the replay the
target's first record comes in the same drain, on the same state and
column (the state realizes a relabeling of the target, so its cost to the
target is 0 and the ball keeps it), and the pruning keeps its winners (see
"Target search").  Such a request settles nothing: it builds no ball,
replays no drain, forks nothing and takes no lock.  Any other request
replays the log, growing its own ball from each logged drain; at its
meeting drain it forks a private search from the logged state (the
containers copied, the arrays shared: every array a search keeps is
read-only), sets its ``keep`` and goes on, and it extracts its path from
the settled records of whichever search yielded its last drain.  A budget
counts a call's own search, so a request with ``max_cost`` or
``max_states`` always replays.  The log is built by the first target
search of its plan, never at import, and it grows only when a request
needs a drain past its end: under a lock, on that request's pool, and
expanding a drain only once a request needs what follows it, so the
request that grows it does no work its own search would not, beyond
recording that drain's functions.  If anything raises while it grows, the
whole log is dropped, its record with it.  Calls may come from several
threads: the record is replaced whole after each drain the log appends,
and a reader that sees a drain's entry finds that drain beside it.  The
log lives as long as its plan and holds the drains up to the deepest
meeting asked for.  Measured on 2 vCPUs: after a ``synth-one`` benchmark
round (seed 1), at most 4,236 states and 0.47 MiB per plan
(ncv-155/path), and 40 KB of record; after a plan's deepest targets, at
most 99,245 states and 7.2 MiB (ncv-111/path) and 86,712 states and 8.8
MiB (ncv-155/path).  In each ``synth-one`` round after the first, the log
answers 87-89 of the 120 requests (seeds 1, 2, 3 and 7).  A landmark that
the log answers takes 95-180 µs in process, against 0.7-1.5 ms for its
replay.  A uniform target mostly settles past its meeting drain, so it
mostly replays: of 120 uniform targets over the three named metrics on
both topologies, the logs answer 22-29, and 27-31 when the same 120 are
asked again (seeds 7 and 8).  20 uniform ncv-111/full targets in one process take a median of
7.6-8.2 ms per request and 0.26-0.36 s in all, as they did before the log
answered; a cold ``ncvsynth synth`` of the cost-23 ncv-111/path target,
which shares no work, 0.33-0.46 s.
"""

from __future__ import annotations

import copy
import functools
import heapq
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceeded, InternalError, QuantumControl
from .model import (
    Circuit,
    CircuitState,
    CostMetric,
    FULL_TOPOLOGY,
    GATE_CODES,
    GATES,
    Gate,
    LINE_PERMUTATIONS,
    LinePerm,
    N_FUNCTIONS,
    N_LINES,
    N_ROWS,
    Topology,
    apply_gate,
    bit_offset,
    enumerate_gates,
    function_rank,
    function_tuples,
    rank_tables,
    row_permutation,
)

#: A (primary, secondary) cost, ordered lexicographically.
Cost = tuple[int, int]

#: ``Circuit._of_codes``, bound once: ``witness`` calls it per function.
_circuit_of_codes = Circuit._of_codes


@dataclass(frozen=True)
class SearchOptions:
    """Pruning toggles and resource ceilings for one search run.

    A run raises BudgetExceeded once it drains a bucket of primary cost
    above ``max_cost``, or once it has settled more than ``max_states``
    states.  ``synthesize_one``'s target search is one search: a target of
    optimal cost at most ``max_cost`` is settled before it passes that
    ceiling, and ``max_states`` counts its states."""

    no_repeat_placement: bool = True   # reduction (1)
    settle_relabelings: bool = True    # reduction (2)
    max_cost: int | None = None
    max_states: int | None = None      # counts orbit representatives (see 2)


class WitnessPaths(NamedTuple):
    """Functions' costs and witnesses, one row per function: in a table, row
    i is the function of rank i.  Row i's witness is
    ``gate_ids[i, :lengths[i]]``, the ``Circuit`` codes of its gates (their
    indices in ``GATES``); the rest of the row holds ``len(GATES)``, so a
    lookup table over ``GATES`` with one extra entry (weight 0, empty text)
    ignores it."""

    cost: np.ndarray      # int64 primary cost
    gate_ids: np.ndarray  # uint8 (function, position)
    lengths: np.ndarray   # int32 witness length


@functools.cache
def _codes_of(gates: tuple[Gate, ...]) -> np.ndarray:
    """The ``Circuit`` code of each gate of ``gates`` (int64, read-only)."""
    codes = np.array([GATE_CODES[g] for g in gates], dtype=np.int64)
    codes.setflags(write=False)
    return codes


def _check_gate_ids(paths: WitnessPaths, gate_list: tuple[Gate, ...]) -> None:
    """ValueError unless each row of ``paths.gate_ids`` holds ``lengths[i]``
    codes of gates in ``gate_list`` and then only the padding ``len(GATES)``."""
    ids, lengths = np.asarray(paths.gate_ids), np.asarray(paths.lengths)
    if ids.ndim != 2 or lengths.ndim != 1 or {ids.dtype.kind, lengths.dtype.kind} - {"i", "u"}:
        raise ValueError("gate ids must be an integer matrix and lengths an integer vector")
    if ((lengths < 0) | (lengths > ids.shape[1])).any():
        raise ValueError(f"a witness length is outside 0..{ids.shape[1]}")
    pad = len(GATES)
    # An id's kind: 1 for a code of the list, 2 for the padding, else 0.
    kind = np.zeros(pad + 1, dtype=np.uint8)
    kind[_codes_of(gate_list)] = 1
    kind[pad] = 2
    inside = np.arange(ids.shape[1]) < lengths[:, None]
    if ((ids < 0) | (ids > pad)).any() or (kind.take(ids) != 2 - inside.view(np.uint8)).any():
        raise ValueError(f"gate ids must be codes of the gate list, padded with {pad}")


class SynthesisTable:
    """Optimal cost and one witness circuit for each of the 40,320
    reversible functions.

    The table is its arrays, row i for the function of rank i: the
    ``witness_paths`` and, row for row, the secondary costs.  ValueError
    unless each array has ``N_FUNCTIONS`` rows and each row of gate ids
    holds codes of gates in ``gate_list``, padded as ``WitnessPaths`` says.  The
    tuple-keyed methods convert a function to its rank at the boundary.
    ``states_visited`` counts the states the search settled (0 for a table
    read back from stored arrays).
    """

    def __init__(
        self,
        metric: CostMetric | None,
        topology: Topology,
        library: str,
        gate_list: tuple[Gate, ...],
        paths: WitnessPaths,
        secondary: np.ndarray,
        mode: str = "metric",
        states_visited: int = 0,
    ) -> None:
        Circuit(gate_list, library)  # ValueError unless every gate is in the library
        if any(np.shape(arr)[:1] != (N_FUNCTIONS,) for arr in (*paths, secondary)):
            raise ValueError(f"a table holds {N_FUNCTIONS} rows, one per function")
        _check_gate_ids(paths, gate_list)
        self.metric = metric
        self.topology = topology
        self.library = library
        self.mode = mode
        self.states_visited = states_visited
        self.gate_list = gate_list
        for arr in (*paths, secondary):
            arr.setflags(write=False)
        self._paths = paths
        self._secondary = secondary

    def functions(self) -> Iterator[tuple[int, ...]]:
        """Every function in rank order (the serialization order): the
        interned tuples of ``model.function_tuples``, which ``witness`` and
        the other tuple-keyed methods rank in O(1)."""
        return iter(function_tuples())

    @property
    def costs(self) -> np.ndarray:
        """``cost_of`` every function, in rank order: the read-only int64
        cost array of ``witness_paths``."""
        return self._paths.cost

    def secondary_array(self) -> np.ndarray:
        """``secondary_of`` every function, in rank order."""
        return self._secondary

    def cost_of(self, func: Sequence[int]) -> int:
        return int(self._paths.cost[function_rank(func)])

    def secondary_of(self, func: Sequence[int]) -> int:
        """The witness's secondary cost: under ``settle_all``'s ``secondary``
        metric, or in an NCT lex-max table its substituted cost; 0 for a
        table settled under a single metric."""
        return int(self._secondary[function_rank(func)])

    def witness(self, func: Sequence[int]) -> Circuit:
        """Materialize the stored optimal circuit for one function: its row
        of ``witness_paths``, sliced from the bytes of the gate-id matrix."""
        row = function_rank(func)
        codes, width, lengths = self._codes
        start = row * width
        return _circuit_of_codes(codes[start:start + lengths[row]], self.library)

    @functools.cached_property
    def _codes(self) -> tuple[bytes, int, list[int]]:
        ids = self._paths.gate_ids.astype(np.uint8, copy=False)
        return ids.tobytes(), ids.shape[1], self._paths.lengths.tolist()

    def witness_paths(self) -> WitnessPaths:
        """The witness of every function as gate ids, in rank order
        (read-only)."""
        return self._paths


# --------------------------------------------------------------------------
# Packed-state helpers

_U64 = np.uint64


#: Per line, its Boolean bits and its flag bits in every row.
_BOOL = tuple(sum(1 << (bit_offset(r, l) + 1) for r in range(N_ROWS)) for l in range(N_LINES))
_FLAG = tuple(sum(1 << bit_offset(r, l) for r in range(N_ROWS)) for l in range(N_LINES))
_ALL_FLAGS = _U64(_FLAG[0] | _FLAG[1] | _FLAG[2])
_ONE = _U64(1)
_ZERO = _U64(0)


def _shifted(x: np.ndarray, delta: int) -> np.ndarray:
    return x << _U64(delta) if delta >= 0 else x >> _U64(-delta)


#: Keys per block of the work that ``_canonical`` and the row-pair decode do
#: per key, so that their temporaries are a block's size, not a chunk's.
#: Measured on an ncv-012 settle (2 CPUs, 3 processes per size): blocks of
#: 8192 and 16384 keys took 0.94-1.05 and 0.85-0.91 s; 32,768 took
#: 0.76-0.87 s, as fast as 65,536 or no blocking (0.67-0.94 s), at a traced
#: peak of 25.7 MiB against their 26.7 MiB.
_BLOCK = 1 << 15

#: Most keys that ``_least_line_image`` and ``_mask_canonical``, and most
#: parents that ``_candidates``, take in their stacked forms: one broadcast
#: over every symmetry (or gate) in place of a loop of numpy calls per
#: symmetry (or placement), faster while per-call overhead outweighs the
#: larger temporaries (see the module docstring).  Swept on 2 CPUs, medians
#: of 7 rounds of 240 ``synthesize_one`` requests / an ncv-012 full settle /
#: an ncv-111 full settle: loops only 762 / 133 / 350 ms; 1,024 keys and 128
#: parents 666 / 130 / 351 ms; 512 or 2,048 keys 664-678 / 129-136 /
#: 363-371 ms; 64 or 256 parents 674-700 / 134-140 / 361-365 ms.
_STACKED_KEYS = 1024
_STACKED_PARENTS = 128


class _Placement(NamedTuple):
    """One (controls, target) placement as packed-key arithmetic, shared by
    the gates on it."""

    control_flags: np.uint64    # flag bits of the control lines (0 for NOT)
    target_bool: np.uint64      # Boolean bits of the target line
    moves: tuple[tuple[np.uint64, int], ...]  # per control: its Boolean bits, and
                                              # the shift onto the target's flag bits


class _Expansion(NamedTuple):
    """A gate list and its weights compiled for expansion.  Candidates are
    made gate by gate in candidate order: grouped by weight (groups in order
    of their first gate), by position in the gate list within a group.  The
    last four fields hold each step (gate) as a (step, 1) column, for the
    stacked form of ``_candidates``."""

    placements: tuple[_Placement, ...]
    bits: np.ndarray                    # uint16 bit of each placement in reduction (1)'s sets
    steps: tuple[tuple[int, str], ...]  # (placement index, gate kind) in candidate order
    gate_ids: np.ndarray                # uint8 gate ids in candidate order
    groups: tuple[tuple[Cost, int], ...]  # (weight, end of its steps) in candidate order
    step_flags: np.ndarray  # uint64 flag bits of the step's control lines
    step_bits: np.ndarray   # uint16 bit of the step's placement
    step_moves: np.ndarray  # uint64 (control, [Boolean bits, left shift], step, 1), moving
                            # them onto the target's flag bits shifted left by _LIFT; a
                            # single control twice, none (bits 0) for NOT
    step_forms: np.ndarray  # uint64 ([NOT's hit, m_and, m_xor, m_v], step, 1), see _candidates


#: Bits by which ``_stacked_candidates`` lifts its control moves, so that
#: each shifts left (a move shifts by -5..3 bits; keys use 48 of 64).
_LIFT = _U64(5)

#: Per gate kind, its (m_and, m_xor, m_v) in ``_candidates``'s stacked formula.
_FORMS = {
    "NOT": (_ZERO, _ALL_FLAGS, _ZERO),
    "CNOT": (_ZERO, _ALL_FLAGS, _ZERO),
    "TOF": (_ZERO, _ALL_FLAGS, _ZERO),
    "V": (_ALL_FLAGS, _ZERO, _ALL_FLAGS),
    "V+": (_ALL_FLAGS, _ALL_FLAGS, _ALL_FLAGS),
}


@functools.cache
def _placement_bits(gates: tuple[Gate, ...]) -> np.ndarray:
    """uint16 by gate id: the bit of the gate's (controls, target) placement,
    the placements numbered in the order the list first uses them; 0 for
    every other id of the 256, so that a relabeled id of 255 (off the list,
    or the root's) has none.  At most 12 placements (NCT on the full
    topology).  Read-only."""
    index: dict[tuple, int] = {}
    bits = np.zeros(256, dtype=np.uint16)
    for gate in gates:
        bits[GATE_CODES[gate]] = 1 << index.setdefault(gate.placement, len(index))
    bits.setflags(write=False)
    return bits


@functools.cache
def _expansion(gates: tuple[Gate, ...], weights: tuple[Cost, ...]) -> _Expansion:
    """Built once per gate list and weights."""
    placement_index: dict[tuple, int] = {}
    placements: list[_Placement] = []
    by_weight: dict[Cost, list[int]] = {}
    for gid, (gate, weight) in enumerate(zip(gates, weights)):
        by_weight.setdefault(weight, []).append(gid)
        if gate.placement in placement_index:
            continue
        placement_index[gate.placement] = len(placements)
        t = gate.target
        placements.append(_Placement(
            _U64(sum(_FLAG[c] for c in gate.controls)),
            _U64(_BOOL[t]),
            tuple((_U64(_BOOL[c]), 2 * (t - c) - 1) for c in gate.controls),
        ))
    order = [gid for group in by_weight.values() for gid in group]
    pids = [placement_index[g.placement] for g in gates]
    codes = _codes_of(gates)
    gate_ids = codes[order].astype(np.uint8)
    # Bit i is placement i, as both number the placements in order of first use.
    bits = (1 << np.arange(len(placements))).astype(np.uint16)
    steps = tuple((pids[gid], gates[gid].kind) for gid in order)
    moves = np.zeros((2, 2, len(steps), 1), dtype=np.uint64)
    forms = np.zeros((4, len(steps), 1), dtype=np.uint64)
    for s, (i, kind) in enumerate(steps):
        controls = placements[i].moves
        for j, (bool_bits, shift) in enumerate((controls * 2)[:2]):
            moves[j, :, s, 0] = bool_bits, shift + int(_LIFT)
        target_flags = _FLAG[gates[order[s]].target] if kind == "NOT" else 0
        forms[:, s, 0] = target_flags, *_FORMS[kind]
    step_flags = np.array([[placements[i].control_flags] for i, _ in steps], dtype=np.uint64)
    step_bits = bits[[i for i, _ in steps]][:, None]
    for arr in (gate_ids, bits, step_flags, step_bits, moves, forms):
        arr.setflags(write=False)
    return _Expansion(
        tuple(placements),
        bits,
        steps,
        gate_ids,
        tuple(zip(by_weight, itertools.accumulate(map(len, by_weight.values())))),
        step_flags,
        step_bits,
        moves,
        forms,
    )


def _candidates(
    expansion: _Expansion, keys: np.ndarray, gidx: np.ndarray, placed: np.ndarray, no_repeat: bool,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Every gate's images of the parents it applies to, in candidate order
    (uint64), the parents' settle indices, and the candidates per gate.  The
    parents of a placement (every control line Boolean and, with reduction
    (1), the placement's bit clear in the parent's ``placed`` set, the
    placements of the gates that produced it) and their ``hit`` (the
    target's flag bit set in each row whose controls are all 1) are found
    once for its gates.  At most ``_STACKED_PARENTS`` parents take the
    stacked form, ``_stacked_candidates``."""
    if len(keys) <= _STACKED_PARENTS:
        return _stacked_candidates(expansion, keys, gidx, placed, no_repeat)
    sources = []
    # (placement, parent): whether the parent's set lacks the placement
    free = ((expansion.bits[:, None] & placed) == 0 if no_repeat
            else [None] * len(expansion.placements))
    for p, other in zip(expansion.placements, free):
        mask = (keys & p.control_flags) == _ZERO if p.control_flags else None
        if other is not None:
            mask = other if mask is None else np.logical_and(mask, other, out=mask)
        src = (keys, gidx) if mask is None else (keys[mask], gidx[mask])
        hit = None
        for bits, shift in p.moves:
            moved = _shifted(src[0] & bits, shift)
            hit = moved if hit is None else np.bitwise_and(hit, moved, out=hit)
        sources.append((*src, hit))
    counts = [len(sources[i][0]) for i, _ in expansion.steps]
    raw = np.empty(sum(counts), dtype=np.uint64)
    end = 0
    for (i, kind), n in zip(expansion.steps, counts):
        start, end = end, end + n
        src_keys, _, hit = sources[i]
        _apply(kind, expansion.placements[i], src_keys, hit, raw[start:end])
    preds = np.concatenate([sources[i][1] for i, _ in expansion.steps])
    return raw, preds, counts


def _stacked_candidates(
    expansion: _Expansion, keys: np.ndarray, gidx: np.ndarray, placed: np.ndarray, no_repeat: bool,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """``_candidates`` as one broadcast over the (step, parent) matrix.  A
    step's ``hit`` is the AND of its controls' moved Boolean bits (one
    control is taken twice), or the target's flag bits for NOT.  With c =
    ((k & m_and) ^ m_xor) & hit, the image of k is k ^ (c << 1) ^ (hit &
    m_v): NOT, CNOT and TOF flip the Boolean bits under ``hit`` (c =
    hit), V carries from the flag (c = k & hit) and V+ from its absence (c =
    (k & hit) ^ hit), each adding ``hit`` to the flag.  The matrix is
    compressed row-major by its validity mask, which puts the candidates in
    candidate order with each step's parents in order."""
    moved = (keys & expansion.step_moves[:, 0]) << expansion.step_moves[:, 1]
    hit = np.bitwise_and(moved[0], moved[1], out=moved[0])
    hit >>= _LIFT
    not_hit, m_and, m_xor, m_v = expansion.step_forms
    hit |= not_hit
    valid = (keys & expansion.step_flags) == _ZERO
    if no_repeat:
        valid &= (placed & expansion.step_bits) == 0
    image = keys & m_and
    image ^= m_xor
    image &= hit
    image <<= _ONE
    image ^= keys
    image ^= hit & m_v
    parent = np.nonzero(valid)[1]
    return image[valid], gidx[parent], valid.sum(axis=1).tolist()


def _apply(kind: str, placement: _Placement, keys: np.ndarray, hit, out: np.ndarray) -> None:
    """Write the gate's image of each of ``keys`` to ``out``.  NOT flips the
    target's Boolean bits; CNOT and TOF flip them where ``hit`` is set; V
    and V+ add 1 and 3 (mod 4) to the target's level there."""
    if kind == "NOT":
        np.bitwise_xor(keys, placement.target_bool, out=out)
        return
    if kind in ("CNOT", "TOF"):
        np.left_shift(hit, _ONE, out=out)
    else:
        # V: carry from the flag into the Boolean bit where the flag was
        # set; V+: where it was clear.
        np.bitwise_and(keys, hit, out=out)
        if kind == "V+":
            out ^= hit
        out <<= _ONE
        out ^= hit
    out ^= keys


#: Rows 2i and 2i+1 of a packed key are its bits 12i .. 12i + 11.
_PAIR_SHIFTS = np.array([0, 12, 24, 36], dtype=np.uint64)


@functools.cache
def _row_pair_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode tables indexed by the 12 bits of two adjacent rows, the first
    row's in the low 6: the one-hot occupancy of the rows' two Boolean
    outputs (uint8); the two outputs as big-endian code bytes, the first
    row's high (``>u2``); and the two rows' classes, the first row's in the
    low byte (``<u2``).  An output is 4 x line a's Boolean bit + 2 x line
    b's + line c's.  A row's class is 4 x its entries not at level 0 + its
    entries not at level 2; no line map, conjugation or mask changes it.
    Measured on an ncv-012 settle, this order leaves 1.27 least-class rows
    per candidate; the other orders of the two counts leave 1.27-1.95.
    Built on first use from one pass over the 64 values of a row."""
    row = np.arange(1 << 6)
    levels = [(row >> bit_offset(0, line)) & 3 for line in range(N_LINES)]
    output = sum((lv >> 1) << (N_LINES - 1 - line) for line, lv in enumerate(levels))
    klass = _row_classes().astype(np.uint16)
    second, first = np.divmod(np.arange(1 << 12), 1 << 6)
    occupancy = ((1 << output[first]) | (1 << output[second])).astype(np.uint8)
    codes = ((output[first] << 8) | output[second]).astype(">u2")
    classes = (klass[first] | (klass[second] << 8)).astype("<u2")
    for table in (occupancy, codes, classes):
        table.setflags(write=False)
    return occupancy, codes, classes


@functools.cache
def _row_classes() -> np.ndarray:
    """uint8 class of each of the 64 values of a row, as ``_row_pair_tables``
    defines it.  Read-only."""
    levels = [(np.arange(1 << 6) >> bit_offset(0, line)) & 3 for line in range(N_LINES)]
    classes = (4 * sum(lv != 0 for lv in levels) + sum(lv != 2 for lv in levels)).astype(np.uint8)
    classes.setflags(write=False)
    return classes


def _row_pair_lookup(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(key, i) -> ``table`` entry of the key's rows 2i and 2i+1.  Up to
    ``_STACKED_KEYS`` keys take one broadcast over the row pairs; more take
    one shift, mask and ``take`` per row pair into a column of the output,
    block by block of ``_BLOCK`` keys: a broadcast's inner loop runs over
    the 4 pairs.  Measured on 2 vCPUs, broadcast against columns: 1.05
    against 0.27 ms on 30,000 random keys, 5.3 against 2.0-2.4 ms on
    200,000, and 3.6 against 13-15 µs on 3."""
    out = np.empty((len(keys), len(_PAIR_SHIFTS)), dtype=table.dtype)
    if len(keys) <= _STACKED_KEYS:
        pairs = keys[:, None] >> _PAIR_SHIFTS
        pairs &= _U64(0xFFF)
        table.take(pairs, out=out, mode="clip")
        return out
    for start in range(0, len(keys), _BLOCK):
        block = keys[start:start + _BLOCK]
        for i, shift in enumerate(_PAIR_SHIFTS):
            pairs = block >> shift
            pairs &= _U64(0xFFF)
            table.take(pairs, out=out[start:start + _BLOCK, i], mode="clip")
    return out


def _occupancy(keys: np.ndarray) -> np.ndarray:
    """uint8 one-hot OR of the 8 rows' Boolean outputs of each key: its four
    row pairs' bytes, viewed as one uint32 and folded by two shifts."""
    folded = _row_pair_lookup(keys, _row_pair_tables()[0]).view(np.uint32)[:, 0]
    folded |= folded >> 16
    return (folded | folded >> 8).astype(np.uint8)


def _output_codes(keys: np.ndarray) -> np.ndarray:
    """The 8 rows' Boolean outputs of each key as big-endian bytes, row 0
    first: the function's code of ``rank_tables().codes``."""
    codes = _row_pair_lookup(keys, _row_pair_tables()[1])
    return codes.view(">u8")[:, 0].astype(np.uint64)


def _ranks_of(keys: np.ndarray) -> np.ndarray:
    """Rank of the realized function of each (Boolean) packed key."""
    return rank_tables().ranks_of_codes(_output_codes(keys))


def _assert_projection_permutation(keys: np.ndarray) -> None:
    """Vectorized check that Boolean projections are permutations of 0..7."""
    if not bool((_occupancy(keys) == 0xFF).all()):
        raise InternalError(
            "internal error: reached a state whose Boolean projection is not "
            "a permutation"
        )


# --------------------------------------------------------------------------
# Symmetries of packed states

#: Sigma ids: LINE_PERMUTATIONS index, plus _N_PERMS after V <-> V+ conjugation,
#: plus _N_SIDS x the input mask.
_N_PERMS = len(LINE_PERMUTATIONS)
_N_SIDS = 2 * _N_PERMS


class _Orbits(NamedTuple):
    """The symmetries of one search as lookup tables."""

    perm_ids: np.ndarray  # int8 LINE_PERMUTATIONS ids of the non-identity line symmetries
    images: np.ndarray    # uint64 (symmetry, key word, word value): bits of the image
    conj: bool            # whether the group holds conjugation (times each of the above)
    masks: bool           # whether it holds the 8 input masks (times each of the above)
    compose: np.ndarray   # int8 (a, b): sigma id of sigma a after sigma b
    relabel: np.ndarray   # uint8 (sigma, gate id): id of the gate's image; 255 if
                          # it is off the list, and for the root's gate id 255
    placement_bit: np.ndarray  # uint16 (sigma, gate id): the image's placement bit
    word_index: np.ndarray  # int64 (symmetry, key word, 1): offset of its table in images
    offer_sids: np.ndarray  # int8 sigma id of each offer of _stacked_line_image
    offer_index: np.ndarray  # uint64 (offer, 1): each offer's row, 0, 1, ...


@functools.cache
def _image_tables(symmetries: tuple[LinePerm, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Relabeling by ``perm`` moves the level of row i, line l to row
    ``row_permutation(perm)[i]``, line ``perm[l]`` (the state the relabeled
    circuit reaches), so the image of a packed key is the OR of one table
    entry per 16-bit word of the key, built here from per-byte parts."""
    perm_ids = [LINE_PERMUTATIONS.index(p) for p in symmetries if p != LINE_PERMUTATIONS[0]]
    values = np.arange(256, dtype=np.uint64)
    images = np.empty((len(perm_ids), 3, 1 << 16), dtype=np.uint64)
    for s, pid in enumerate(perm_ids):
        perm = LINE_PERMUTATIONS[pid]
        rows = row_permutation(perm)
        parts = np.zeros((6, 256), dtype=np.uint64)
        for field in range(N_ROWS * N_LINES):
            row, line = divmod(field, N_LINES)
            byte, offset = divmod(field, 4)
            dest = bit_offset(rows[row], perm[line])
            parts[byte] |= ((values >> _U64(2 * offset)) & _U64(3)) << _U64(dest)
        # word value 256 * high byte + low byte
        images[s] = (parts[1::2, :, None] | parts[0::2, None, :]).reshape(3, -1)
    perm_ids = np.array(perm_ids, dtype=np.int8)
    for arr in (perm_ids, images):
        arr.setflags(write=False)
    return perm_ids, images


@functools.cache
def _relabel_table(gates: tuple[Gate, ...]) -> np.ndarray:
    """uint8 (sigma, gate id): for each gate of ``gates``, the id of its
    image under sigma (for sigma >= _N_PERMS, V and V+ interchanged, then
    the line map of sigma - _N_PERMS), or 255 where the image is not in the
    list (the topology forbids it); 255 for every other id, the root's 255
    among them.  Built once per gate list, read-only."""
    listed = set(gates)
    relabel = np.full((2 * _N_PERMS, 256), 255, dtype=np.uint8)
    for sid in range(2 * _N_PERMS):
        perm = LINE_PERMUTATIONS[sid % _N_PERMS]
        for g in gates:
            code = GATE_CODES[g]
            if sid >= _N_PERMS:
                g = g.inverse()  # V <-> V+; every other kind is self-inverse
            image = Gate(g.kind, perm[g.target], tuple(perm[c] for c in g.controls))
            relabel[sid, code] = GATE_CODES[image] if image in listed else 255
    relabel.setflags(write=False)
    return relabel


@functools.cache
def _orbit_tables(
    gates: tuple[Gate, ...], symmetries: tuple[LinePerm, ...], conj: bool, masks: bool
) -> _Orbits:
    """Built on first use per gate list, line symmetry set, ``conj`` and
    ``masks``; read-only."""
    after = np.array(
        [[LINE_PERMUTATIONS.index(tuple(a[l] for l in b)) for b in LINE_PERMUTATIONS]
         for a in LINE_PERMUTATIONS],
        dtype=np.int8,
    )
    # Conjugation commutes with every line map, and two conjugations cancel.
    compose = np.block([[after, after + _N_PERMS], [after + _N_PERMS, after]])
    relabel = _relabel_table(gates)
    if masks:
        # (a, r) o (b, r') = (a o b, rho_a(r') ^ r), where rho_a is the line
        # map's row permutation; the mask moves no gate.
        mask, line = np.divmod(np.arange(N_ROWS * _N_SIDS), _N_SIDS)
        rho = np.array([row_permutation(p) for p in LINE_PERMUTATIONS])[line % _N_PERMS]
        compose = compose[line[:, None], line] + _N_SIDS * (rho[:, mask] ^ mask[:, None])
        compose = compose.astype(np.int8)
        relabel = np.tile(relabel, (N_ROWS, 1))
    placement_bit = _placement_bits(gates)[relabel]
    perm_ids, images = _image_tables(symmetries)
    word_index = (np.arange(images.shape[0] * 3, dtype=np.int64) << 16).reshape(-1, 3, 1)
    # The offers in _least_line_image's order: each line image (the key's
    # own first), followed by its conjugate where conjugation is in the group.
    line_sids = np.array([0, *perm_ids.tolist()], dtype=np.int8)
    offer_sids = (np.stack([line_sids, line_sids + _N_PERMS], axis=1).ravel() if conj
                  else line_sids)
    offer_index = np.arange(len(offer_sids), dtype=np.uint64)[:, None]
    for arr in (compose, relabel, placement_bit, word_index, offer_sids, offer_index):
        arr.setflags(write=False)
    return _Orbits(perm_ids, images, conj, masks, compose, relabel, placement_bit,
                   word_index, offer_sids, offer_index)


def _least_line_image(x: np.ndarray, orbits: _Orbits, low: np.ndarray, sig: np.ndarray) -> None:
    """Write the least line and conjugation image of each key to ``low``
    and the sigma id of the first symmetry giving it (0 for the key) to
    ``sig``.  Each line image y, the key included, is followed by its
    conjugate y ^ ((y & flags) << 1), which maps every level v to -v mod 4.
    At most ``_STACKED_KEYS`` keys take the stacked form,
    ``_stacked_line_image``; more take a loop over the symmetries."""
    if len(x) <= _STACKED_KEYS:
        _stacked_line_image(x, orbits, low, sig)
        return
    np.copyto(low, x)
    sig.fill(0)
    image, part, less = np.empty_like(x), np.empty_like(x), np.empty(len(x), dtype=bool)
    words = x.astype("<u8", copy=False).view(np.uint16).reshape(-1, 4)
    for pid, table in [(0, None), *zip(orbits.perm_ids.tolist(), orbits.images)]:
        offers = []
        if table is not None:
            table[0].take(words[:, 0], out=image, mode="clip")
            for word in (1, 2):
                image |= table[word].take(words[:, word], out=part, mode="clip")
            offers.append((image, pid))
        if orbits.conj:
            line_image = x if table is None else image
            np.bitwise_and(line_image, _ALL_FLAGS, out=part)
            np.left_shift(part, _ONE, out=part)
            offers.append((np.bitwise_xor(part, line_image, out=part), pid + _N_PERMS))
        for y, sid in offers:
            np.less(y, low, out=less)
            np.copyto(sig, np.int8(sid), where=less)
            np.minimum(low, y, out=low)


def _stacked_line_image(x: np.ndarray, orbits: _Orbits, low: np.ndarray, sig: np.ndarray) -> None:
    """``_least_line_image`` as one (offer, key) matrix, its rows in the
    loop's offer order: the key, its conjugate, then each line image
    followed by its conjugate.  The loop replaces only on a strictly less
    offer, so it keeps the first least one.  Each offer, shifted left by 4
    bits (keys use 48), carries its row index (at most 12 rows) in the low
    bits, so the least entry of a column is its least offer, the first
    among equals."""
    words = np.empty((3, len(x)), dtype=np.int64)
    words[...] = x.astype("<u8", copy=False).view(np.uint16).reshape(-1, 4)[:, :3].T
    lines = len(orbits.perm_ids)
    offers = np.empty((1 + lines, 1 + orbits.conj, len(x)), dtype=np.uint64)
    offers[0, 0] = x
    if lines:
        parts = orbits.images.reshape(-1).take(np.add(orbits.word_index, words))
        np.bitwise_or.reduce(parts, axis=1, out=offers[1:, 0])
    if orbits.conj:
        flipped = offers[:, 1]
        np.bitwise_and(offers[:, 0], _ALL_FLAGS, out=flipped)
        flipped <<= _ONE
        flipped ^= offers[:, 0]
    offers = offers.reshape(len(orbits.offer_sids), len(x))
    offers <<= _U64(4)
    offers |= orbits.offer_index
    least = offers.min(axis=0)
    np.right_shift(least, _U64(4), out=low)
    sig[:] = orbits.offer_sids.take(least & _U64(15))


#: The index of the lowest set bit of each byte value (0 for 0).
_LOW_BIT = np.array([(b & -b).bit_length() - 1 if b else 0 for b in range(256)], dtype=np.uint8)

#: Bit offset of each of a packed key's rows (six bits each), and each row's index.
_ROW_SHIFTS = np.arange(0, 6 * N_ROWS, 6, dtype=np.uint64)
_ROW_INDEX = np.arange(N_ROWS)


#: (mask bit, its row shift in bits, the bits of the rows whose index lacks it)
_ROW_SWAPS = tuple(
    (np.uint8(bit), _U64(6 * bit), _U64(sum(63 << (6 * i) for i in range(N_ROWS) if not i & bit)))
    for bit in (1, 2, 4)
)


def _xor_rows(keys: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Each key with row i moved from row i ^ m, for the key's mask m: the
    state its circuit reaches after the input NOT layer N_m."""
    for bit, shift, rows in _ROW_SWAPS:
        swapped = (keys & rows) << shift
        swapped |= (keys >> shift) & rows
        keys = np.where(masks & bit, swapped, keys)
    return keys


def _mask_canonical(x: np.ndarray, orbits: _Orbits, low: np.ndarray, sig: np.ndarray) -> None:
    """``_least_line_image`` under masks too: for each row of least class,
    the mask that moves it to row 7 (which every line map fixes), then the
    line and conjugation images; the least of these, and its sigma id.  The
    loop visits each key's rows of least class by lowest set bit and
    replaces only on a strictly less image, so it keeps the first least
    (row, image) pair; at most ``_STACKED_KEYS`` keys take the stacked form,
    ``_stacked_mask_canonical``, which finds that pair in one pass."""
    if len(x) <= _STACKED_KEYS:
        _stacked_mask_canonical(x, orbits, low, sig)
        return
    classes = _row_pair_lookup(x, _row_pair_tables()[2]).view(np.uint8)
    least = classes[:, 0].copy()
    for row in range(1, N_ROWS):
        np.minimum(least, classes[:, row], out=least)
    hits = np.zeros(len(x), dtype=np.uint8)  # bit i: row i is of least class
    for row in range(N_ROWS):
        hits |= (classes[:, row] == least).view(np.uint8) << np.uint8(row)
    todo = None
    while True:
        masks = _LOW_BIT[hits] ^ np.uint8(N_ROWS - 1)
        y = _xor_rows(x if todo is None else x[todo], masks)
        if todo is None:
            _least_line_image(y, orbits, low, sig)
            sig[:] = orbits.compose[sig, _N_SIDS * masks]
        else:
            y_low, y_sig = np.empty_like(y), np.empty(len(y), dtype=np.int8)
            _least_line_image(y, orbits, y_low, y_sig)
            better = y_low < low[todo]
            low[todo[better]] = y_low[better]
            sig[todo[better]] = orbits.compose[y_sig[better], _N_SIDS * masks[better]]
        hits &= hits - np.uint8(1)
        more = np.flatnonzero(hits)
        if not len(more):
            return
        todo, hits = (more if todo is None else todo[more]), hits[more]


def _stacked_mask_canonical(
    x: np.ndarray, orbits: _Orbits, low: np.ndarray, sig: np.ndarray,
) -> None:
    """``_mask_canonical`` over every (key, row of least class) pair at
    once.  ``np.nonzero`` lists the pairs by key, rows ascending, and each
    pair's masked key gathers its key's rows.  Each pair's least line
    image, shifted left by 7 bits (keys use 48), carries its row and line
    sigma in the low bits, so the least of a key's pairs, by
    ``minimum.reduceat``, is its least image from the first row giving it."""
    rows = x[:, None] >> _ROW_SHIFTS
    rows &= _U64(63)
    classes = _row_classes().take(rows)
    key, row = np.nonzero(classes == classes.min(axis=1, keepdims=True))
    # Row i of a masked key is row i ^ mask of the key, mask = row ^ 7.
    moved = rows[key[:, None], _ROW_INDEX ^ (row[:, None] ^ (N_ROWS - 1))]
    moved <<= _ROW_SHIFTS
    y = np.bitwise_or.reduce(moved, axis=1)
    y_low, y_sig = np.empty_like(y), np.empty(len(y), dtype=np.int8)
    _least_line_image(y, orbits, y_low, y_sig)
    y_low <<= _U64(7)
    y_low |= row.astype(np.uint64) << _U64(4)
    y_low |= y_sig.astype(np.uint64)
    least = np.minimum.reduceat(y_low, key.searchsorted(np.arange(len(x))))
    np.right_shift(least, _U64(7), out=low)
    mask = (least >> _U64(4) & _U64(N_ROWS - 1)) ^ _U64(N_ROWS - 1)
    sig[:] = orbits.compose[least & _U64(15), _N_SIDS * mask]


def _canonical(keys: np.ndarray, orbits: _Orbits) -> tuple[np.ndarray, np.ndarray]:
    """The canonical image of each key and the sigma id of the symmetry
    giving it: without masks, the least image, from the first symmetry
    giving it; with masks, the least image whose row 7 holds a row of
    least class.  Works block by block of ``_BLOCK`` keys."""
    least = np.empty_like(keys)
    sigma = np.empty(len(keys), dtype=np.int8)
    canonicalize = _mask_canonical if orbits.masks else _least_line_image
    for start in range(0, len(keys), _BLOCK):
        block = slice(start, start + _BLOCK)
        canonicalize(keys[block], orbits, least[block], sigma[block])
    return least, sigma


# --------------------------------------------------------------------------
# The engine

#: Parents per expansion chunk; a larger frontier is split into chunks of
#: this many, which the searching thread and the worker share.  A drain of
#: more candidates than this is split into key ranges.
_CHUNK = 8192


def _workers() -> int:
    """Worker threads to expand chunks and drain key ranges beside the
    searching thread: one where this process may use two CPUs or more, else
    none.  One is the only count measured (on 2 CPUs); each further thread
    would hold a further chunk's temporaries and malloc arena."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(1, cpus - 1)


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's position in the sorted ``sorted_keys`` (where it would go,
    if absent), and whether it is there."""
    at = np.searchsorted(sorted_keys, keys)
    return at, sorted_keys.take(at, mode="clip") == keys


class _Pool:
    """The workers of one call, which expand chunks and drain key ranges:
    started at the first split, shut down when the call ends.  A target
    search's prefix log grows on the pool of the call that needs its next
    drain, so its large frontiers split too and no thread outlives a call."""

    def __init__(self) -> None:
        self.workers = _workers()
        self._pool: ThreadPoolExecutor | None = None

    def map(self, fn: Callable, items: Sequence) -> list:
        """``[fn(x) for x in items]``, computed by the calling thread and up
        to ``workers`` pool threads, each taking the next item as it
        finishes one; with one item or no workers, by the calling thread
        alone.

        The calling thread takes a share, rather than wait on a pool of one
        thread per CPU, because each pool thread holds its own malloc arena:
        on 2 CPUs that pool of two raised peak RSS by about 3 MiB (8 ncv-111
        ``synthesize_one`` calls 70.7 -> 73.6 MiB, an ncv-111/full settle and
        ``verify_witnesses`` 112.3 -> 115.3 MiB, medians of 3 and 6
        processes) at equal settle times."""
        if not self.workers or len(items) < 2:
            return [fn(x) for x in items]
        self._pool = self._pool or ThreadPoolExecutor(self.workers, "ncvsynth-search")
        results = [None] * len(items)
        indices = iter(range(len(items)))
        lock = threading.Lock()

        def take() -> int | None:
            with lock:
                return next(indices, None)

        def work() -> None:
            for i in iter(take, None):
                results[i] = fn(items[i])

        futures = [self._pool.submit(work) for _ in range(min(self.workers, len(items) - 1))]
        work()
        for future in futures:
            future.result()
        return results

    def __enter__(self) -> _Pool:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()


#: What a drain settles: its (primary, secondary) cost, the new keys in
#: packed-key order and their settle indices.
_Drain = tuple[Cost, np.ndarray, np.ndarray]

#: A drain of a target search, and the settled records that hold its states.
_Recorded = tuple[Cost, np.ndarray, np.ndarray, list]


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


#: The root's settled record: its own predecessor, gate id 255 and sigma 0
#: (see _extract_paths).
_ROOT_RECORD = (np.zeros(1, np.int32), np.array([255], np.uint8), np.zeros(1, np.int8))
_read_only(*_ROOT_RECORD)


class _Search:
    """The settle loop of a search from the identity, its root settled and
    expanded: ``next_drain`` drains buckets in cost order up to the next
    drain that settles a state, which ``_expand`` then expands; ``drains``
    alternates the two, yielding each drain before it expands it, so a
    caller that stops stepping expands nothing more.  ``keep``, where set,
    is given each drain's cost and fresh keys and returns the mask of those
    to settle; the others are dropped unsettled.  Every array a search keeps
    is read-only once made, so ``fork`` shares them."""

    def __init__(self, plan: _Plan, pool: _Pool | None) -> None:
        self.plan, self.pool = plan, pool
        # Per drain, its states' predecessor settle indices, gate ids and sigmas.
        self.settled = [_ROOT_RECORD]
        self.total = 1
        # The settled states a candidate can meet (see the module docstring):
        # each drain's new keys with its primary cost, and their sorted union.
        self.window: list[tuple[int, np.ndarray]] = [(0, plan.root)]
        self.window_keys = plan.root
        self.buckets: dict[Cost, list] = {}
        self.heap: list[Cost] = []
        self.cost: Cost | None = None  # the bucket being drained
        self.keep: Callable[[Cost, np.ndarray], np.ndarray] | None = None
        self._expand(plan.root, np.zeros(1, np.int32), np.zeros(1, np.uint16), (0, 0))

    def fork(self, pool: _Pool | None) -> _Search:
        """A search on ``pool`` that goes on from this one's state alone: the
        buckets, heap, window list and settled list are copied, and the
        arrays in them shared."""
        twin = copy.copy(self)
        twin.pool = pool
        twin.settled, twin.window, twin.heap = list(self.settled), list(self.window), list(self.heap)
        twin.buckets = {cost: list(batches) for cost, batches in self.buckets.items()}
        return twin

    def drains(self) -> Iterator[_Drain]:
        while (drain := self.next_drain()) is not None:
            cost, keys, gidx, placed = drain
            yield cost, keys, gidx
            self._expand(keys, gidx, placed, cost)

    def next_drain(self) -> tuple[Cost, np.ndarray, np.ndarray, np.ndarray] | None:
        """The next drain that settles a state: its cost, keys, settle
        indices and placement sets (see ``_drain``); None once the queue is
        empty.  The current bucket is drained to exhaustion before the next
        is taken from the heap, and the window is trimmed to the new one."""
        while True:
            while not self.buckets.get(self.cost):
                self.buckets.pop(self.cost, None)
                if not self.heap:
                    return None
                self.cost = heapq.heappop(self.heap)
                floor = self.cost[0] - self.plan.span
                if self.window[0][0] < floor:
                    self.window = [(c, k) for c, k in self.window if c >= floor]
                    # Each drain's keys are sorted: a stable sort merges the runs.
                    self.window_keys = np.sort(
                        np.concatenate([k for _, k in self.window]), kind="stable"
                    )
                    _read_only(self.window_keys)
            settled = self._drain(self.cost)
            if settled is not None:
                return (self.cost, *settled)

    def _drain(self, cost: Cost) -> tuple[np.ndarray, ...] | None:
        """Settle the fresh keys of the bucket's batches: their keys, settle
        indices and placement sets (see below), in settle order; or None if
        no key is fresh.  A bucket of more than ``_CHUNK`` candidates is cut
        at the window's quantiles into one key range per thread of the pool;
        each range settles its keys against its own slice of the window,
        then merges its new keys into its slice of the next window.

        A new key's placement set, which reduction (1) skips, ORs the
        placement bits of every candidate of the key in the drain: each
        reaches it at its settled cost."""
        probed, batches = zip(*self.buckets[cost])
        self.buckets[cost] = []
        columns = list(map(np.concatenate, zip(*batches)))
        keys, _, gids, sigmas = columns
        window = self.window_keys
        ranges = 1 + self.pool.workers if len(keys) > _CHUNK else 1
        cuts = [len(window) * i // ranges for i in range(ranges + 1)]
        edges = [window[c] for c in cuts[1:-1]]

        def settle(i: int) -> tuple[np.ndarray, ...]:
            # The range's keys: none below its lower edge, the last edge
            # before it (the first range has none), and none at or above its
            # upper edge, the first from it on (the last range has none).
            tests = [keys >= e for e in edges[:i][-1:]] + [keys < e for e in edges[i:][:1]]
            at = np.flatnonzero(functools.reduce(np.logical_and, tests)) if tests else None
            part = keys if at is None else keys[at]
            # The placement bit of each candidate's sigma(gate), the last gate
            # of the canonical state it reaches.
            bits = (self.plan.orbits.placement_bit[sigmas, gids] if at is None
                    else self.plan.orbits.placement_bit[sigmas[at], gids[at]])
            # Batches arrive in settle order, each in (parent settle index,
            # gate id) order, so the tie-break winner among equal-cost paths
            # to a key is its least bucket position.
            order = np.argsort(part)
            part = part[order]
            lead = np.ones(len(part), dtype=bool)
            np.not_equal(part[1:], part[:-1], out=lead[1:])
            starts = np.flatnonzero(lead)
            new, winners = part[starts], np.minimum.reduceat(order, starts)
            placed = np.bitwise_or.reduceat(bits[order], starts)
            # Each batch was probed when it was made, and only a settle since
            # then can have put one of its keys in the window.
            if min(probed) < self.total:
                fresh = ~_find(window[cuts[i]:cuts[i + 1]], new)[1]
                new, winners, placed = new[fresh], winners[fresh], placed[fresh]
            if self.keep is not None:
                kept = self.keep(cost, new)
                new, winners, placed = new[kept], winners[kept], placed[kept]
            _assert_projection_permutation(new)
            return new, winners if at is None else at[winners], placed

        parts = self.pool.map(settle, range(ranges))
        new_keys, winners, placed = (
            parts[0] if ranges == 1 else map(np.concatenate, zip(*parts))
        )
        if not len(new_keys):
            return None
        # Range i's slice of the next window: its slice of this one, then
        # its new keys, two sorted runs that a stable sort (timsort) merges.
        merged = np.empty(len(window) + len(new_keys), dtype=np.uint64)
        sizes = [len(part[0]) for part in parts]
        ends = [c + n for c, n in zip(cuts, itertools.accumulate([0, *sizes]))]

        def merge(i: int) -> None:
            out = merged[ends[i]:ends[i + 1]]
            np.concatenate([window[cuts[i]:cuts[i + 1]], parts[i][0]], out=out)
            out.sort(kind="stable")

        self.pool.map(merge, range(ranges))
        gidx = np.arange(self.total, self.total + len(new_keys), dtype=np.int32)
        record = tuple(column[winners] for column in columns[1:])
        _read_only(new_keys, gidx, placed, merged, *record)
        self.settled.append(record)
        self.total += len(new_keys)
        self.window.append((cost[0], new_keys))
        self.window_keys = merged
        return new_keys, gidx, placed

    def _expand(self, keys: np.ndarray, gidx: np.ndarray, placed: np.ndarray, cost: Cost) -> None:
        """Enqueue the fresh canonical successors of settled states: chunk
        by chunk of ``_CHUNK`` parents, on this thread and the pool's, each
        chunk's batches appended in chunk order."""
        window_keys = self.window_keys

        def run(chunk: slice) -> list[tuple[Cost, tuple]]:
            return _successors(
                self.plan, keys[chunk], gidx[chunk], placed[chunk], cost, window_keys
            )

        chunks = [slice(s, s + _CHUNK) for s in range(0, len(keys), _CHUNK)]
        for batches in self.pool.map(run, chunks):
            self._enqueue(batches)

    def _enqueue(self, batches: Sequence[tuple[Cost, tuple]]) -> None:
        """Append (bucket, batch) pairs, made since the latest settle, to
        their buckets."""
        for new_cost, batch in batches:
            _read_only(*batch)
            if new_cost not in self.buckets:
                heapq.heappush(self.heap, new_cost)
            self.buckets.setdefault(new_cost, []).append((self.total, batch))


def _successors(
    plan: _Plan, keys: np.ndarray, gidx: np.ndarray, placed: np.ndarray, cost: Cost,
    window_keys: np.ndarray,
) -> list[tuple[Cost, tuple]]:
    """The fresh canonical successors of some settled states, as one
    (bucket, batch) pair per gate weight, each batch in (parent settle
    index, gate id) order.  Each placement's parents are selected once for
    all its gates (less those whose ``placed`` set holds it, under
    reduction (1)), and the candidates of every weight are canonicalized
    and probed together.  Runs on any thread: it reads only its arguments
    and the plan."""
    expansion = plan.expansion
    raw, preds, counts = _candidates(expansion, keys, gidx, placed, plan.no_repeat)
    if not len(raw):
        return []
    new_keys, sigma = _canonical(raw, plan.orbits)
    del raw
    fresh = np.flatnonzero(~_find(window_keys, new_keys)[1])
    gids = np.repeat(expansion.gate_ids, counts)
    # The candidates of each weight are one run of ``fresh``.
    ends = list(itertools.accumulate(counts))
    bounds = [0, *np.searchsorted(fresh, [ends[i - 1] for _, i in expansion.groups]).tolist()]
    out = []
    for (weight, _), lo, hi in zip(expansion.groups, bounds, bounds[1:]):
        if lo == hi:
            continue
        # Each gate's run is in parent order; a stable sort merges them.
        group = fresh[lo:hi]
        group_preds = preds[group]
        order = np.argsort(group_preds, kind="stable")
        take = group[order]
        batch = (new_keys[take], group_preds[order], gids[take], sigma[take])
        out.append(((cost[0] + weight[0], cost[1] + weight[1]), batch))
    return out


def _met(keys: np.ndarray, costs: np.ndarray, new_keys: np.ndarray, cost: int) -> int | None:
    """The least cost + ``costs`` of a key both in ``new_keys`` and in the
    sorted ``keys``, or None if there is none."""
    at, met = _find(keys, new_keys)
    return int(costs[at[met]].min()) + cost if met.any() else None


def _merged(
    keys: np.ndarray, costs: np.ndarray, new_keys: np.ndarray, cost: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted ``keys`` and their ``costs`` with the sorted ``new_keys``
    (none of them in ``keys``) added at ``cost``: a stable sort of the two
    runs, which timsort merges."""
    both = np.concatenate([keys, new_keys])
    order = np.argsort(both, kind="stable")
    union_costs = np.full(len(both), cost)
    union_costs[order < len(keys)] = costs
    return both[order], union_costs


def _distinct(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` by a sort and a first-of-run mask, several times
    faster past a few dozen keys than numpy's hashing unique of uint64."""
    x = np.sort(x, axis=None)
    lead = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=lead[1:])
    return x[lead]


def _ball_keys(keys: np.ndarray, orders: np.ndarray, orbits: _Orbits) -> np.ndarray:
    """The canonical key of conj(s o T') for each key s and each row order
    T' (a row of ``orders``): row i of s o T' is row T'(i) of s, and conj,
    which maps every level v to -v mod 4, is applied where conjugation is
    not in the group (where it is, canonicalizing undoes it).  Keys are
    moved block by block of ``_BLOCK // N_ROWS``, so that the (key, order,
    row) temporaries hold at most ``len(orders) * _BLOCK`` values."""
    images = np.empty((len(keys), len(orders)), dtype=np.uint64)
    sources = _ROW_SHIFTS[orders]
    step = _BLOCK // N_ROWS
    for start in range(0, len(keys), step):
        rows = keys[start:start + step, None, None] >> sources
        rows &= _U64(63)
        rows <<= _ROW_SHIFTS
        np.bitwise_or.reduce(rows, axis=2, out=images[start:start + step])
    images = images.ravel()
    if not orbits.conj:
        images ^= (images & _ALL_FLAGS) << _ONE
    return _canonical(images, orbits)[0]


class _Prefix:
    """The prefix log of one plan (see "The prefix" in the module
    docstring).  Drain i is a ``_Recorded`` whose records are the log's
    search's settled list, which only grows; state i is a fork of that
    search right after drain i's expansion.  ``recorded`` pairs the drain
    list with an int8 entry per rank: where the log first records the
    function, 0 for the root and i + 1 for drain i (the index of its record
    in the settled list), or -1.  A function first recorded past drain 126
    stays -1, and its requests replay; a whole search under a named metric
    makes at most 105 drains (ncv-155/path).  ``_advance`` grows the log
    under ``lock`` and replaces that array whole after each drain it
    appends, so a reader that sees entry i + 1 finds drain i in the list
    beside it; ``_drop`` empties the log and the record."""

    def __init__(self, plan: _Plan) -> None:
        self.plan = plan
        self.lock = threading.Lock()
        self._drop()

    def _drop(self) -> None:
        self.search: _Search | None = None
        self.drains: list[_Recorded] = []
        self.states: list[_Search] = []
        self.placed: np.ndarray | None = None  # the last drain's placement sets
        unrecorded = np.full(N_FUNCTIONS, -1, dtype=np.int8)
        _read_only(unrecorded)
        self.recorded: tuple[np.ndarray, list[_Recorded]] = (unrecorded, self.drains)

    def answer(self, target: int) -> WitnessPaths | None:
        """The witness of a target search for the function of rank
        ``target``, read from the log if it records the function (None if
        not): its first record in the first entry that records it, by the
        target search's rule, and its path over the settled records up to
        that entry.  It settles nothing and takes no lock."""
        first, drains = self.recorded
        entry = int(first[target])
        if entry < 0:
            return None
        plan = self.plan
        cost, keys, gidx, settled = (
            ((0, 0), plan.root, np.zeros(1, np.int32), [_ROOT_RECORD]) if entry == 0
            else drains[entry - 1]
        )
        funcs, states = _boolean_states(keys, gidx)
        _, row, sigma = _record(plan, funcs, target)
        return _witness_paths(plan, np.array(cost[:1], dtype=np.int64), states[row], sigma,
                              settled[:entry + 1])

    def _note(self, entry: int, keys: np.ndarray, gidx: np.ndarray) -> None:
        """Record at ``entry`` each function that the Boolean states among
        ``keys`` record and no earlier entry does."""
        first = self.recorded[0]
        funcs, _ = _boolean_states(keys, gidx)
        if not len(funcs) or entry > np.iinfo(first.dtype).max:
            return
        ranks = _record(self.plan, funcs, None)[0]
        ranks = ranks[first[ranks] < 0]
        if len(ranks):
            first = first.copy()
            first[ranks] = entry
            _read_only(first)
            self.recorded = (first, self.drains)

    def drain(self, i: int, pool: _Pool) -> _Recorded | None:
        """Drain i, or None if the search ends before it."""
        drains = self.drains
        if i >= len(drains):
            drains = self._advance(i, False, pool)[0]
        return drains[i] if i < len(drains) else None

    def state(self, i: int, pool: _Pool) -> _Search:
        """The search right after drain i's expansion (drain i exists)."""
        states = self.states
        if i >= len(states):
            states = self._advance(i, True, pool)[1]
        return states[i]

    def _advance(self, i: int, expanded: bool, pool: _Pool) -> tuple[list, list]:
        """Grow the log on ``pool`` to drain i and, if ``expanded``, state i,
        or until the search ends; the drains and states as they then are."""
        with self.lock:
            try:
                if self.search is None:
                    self.search = _Search(self.plan, pool)
                    self._note(0, self.plan.root, np.zeros(1, np.int32))
                search = self.search
                search.pool = pool
                while len(self.drains) <= i or (expanded and len(self.states) <= i):
                    if len(self.states) < len(self.drains):
                        cost, keys, gidx, _ = self.drains[-1]
                        search._expand(keys, gidx, self.placed, cost)
                        self.states.append(search.fork(None))
                        continue
                    drain = search.next_drain()
                    if drain is None:
                        break
                    self.drains.append((*drain[:3], search.settled))
                    self.placed = drain[3]
                    self._note(len(self.drains), *drain[1:3])
                search.pool = None
            except BaseException:
                self._drop()
                raise
            return self.drains, self.states


@functools.cache
def _prefix(*key) -> _Prefix:
    """The prefix log of the target searches of ``_search_plan(*key)``,
    empty until the first of them advances it."""
    return _Prefix(_search_plan(*key))


def _toward(prefix: _Prefix, pool: _Pool, target: int) -> Iterator[_Recorded]:
    """The drains of a target search (see "Target search" in the module
    docstring) for the function of rank ``target``, each with the settled
    records that hold its states: the ball around the target, whose row
    orders under the group's relabelings (and output masks) are each record
    column's image of it, grows by the images of each of the prefix's
    drains, at the drain's cost, until a drain settles a key inside it;
    from then on a fork of the prefix's search drops each fresh key that
    lies on no path to the target of cost at most the meeting bound."""
    plan, ranks = prefix.plan, rank_tables()
    # The row orders of N_m o T' for each column's relabeling T', made
    # unique by their 8-byte codes (big-endian, so in row order).
    orders = ranks.outputs[ranks.relabeled[target, plan.col_perm]] ^ plan.col_mask[:, None]
    orders = _distinct(orders.view(">u8")).view(np.uint8).reshape(-1, N_ROWS)
    images = _distinct(_ball_keys(plan.root, orders, plan.orbits))
    ball = (images, np.zeros(len(images), dtype=np.int64))
    for i in itertools.count():
        drain = prefix.drain(i, pool)
        if drain is None:
            return
        yield drain
        cost, keys = drain[:2]
        images = _distinct(_ball_keys(keys, orders, plan.orbits))
        ball = _merged(*ball, images[~_find(ball[0], images)[1]], cost[0])
        bound = _met(*ball, keys, cost[0])
        if bound is not None:
            break
    ball_keys, ball_costs = ball
    reach = cost[0]

    def keep(cost: Cost, keys: np.ndarray) -> np.ndarray:
        # A key's cost to the target is its ball cost, or at least ``reach``
        # outside the ball.
        at, inside = _find(ball_keys, keys)
        rest = np.where(inside, ball_costs.take(at, mode="clip"), reach)
        return rest <= bound - cost[0]

    search = prefix.state(i, pool).fork(pool)
    search.keep = keep
    for drain in search.drains():
        yield (*drain, search.settled)


@functools.cache
def _input_masked() -> np.ndarray:
    """int32 (rank, mask m): the rank of f o N_m, the function i -> f(i ^ m)
    of the function f of that rank.  Built on first use, read-only."""
    ranks = rank_tables()
    rows = np.arange(N_ROWS)
    table = np.stack([ranks.ranks_of(ranks.outputs[:, rows ^ m]) for m in range(N_ROWS)], axis=1)
    table.setflags(write=False)
    return table


class _Plan(NamedTuple):
    """What a search derives from its gate list, weights, line symmetries
    and reduction switches: built once per key by ``_search_plan`` and
    shared, read-only, by every search of that key."""

    expansion: _Expansion
    orbits: _Orbits
    no_repeat: bool         # reduction (1), where the weights leave it sound
    span: int               # the heaviest primary gate weight
    col_perm: np.ndarray    # int8 per record column: the line map's LINE_PERMUTATIONS id,
    col_mask: np.ndarray    # uint8 the input mask
    col_sigma: np.ndarray   # int8 and the sigma id
    not_ids: np.ndarray     # uint8 ids of NOT on lines a, b, c, where masks are in the group
    root: np.ndarray        # uint64 the identity's canonical key, as one entry
    root_sigma: np.ndarray  # int8 the sigma id taking the identity to it
    root_rank: np.ndarray   # int32 the rank of its function


@functools.cache
def _search_plan(
    gates: tuple[Gate, ...], weights: tuple[Cost, ...], symmetries: tuple[LinePerm, ...],
    no_repeat: bool, relabel: bool,
) -> _Plan:
    """The plan of a search with reductions (1) ``no_repeat`` and (2)
    ``relabel`` asked for.  ValueError for a weight with a negative part, a
    gate list that lacks the inverse of one of its gates, or weights that a line
    symmetry does not keep (a failed build is not cached: each call raises)."""
    if min(min(w) for w in weights) < 0:
        raise ValueError(f"a gate weight of {min(weights, key=min)} has a part below 0")
    if not {g.inverse() for g in gates} <= set(gates):
        raise ValueError("the gate list must hold the inverse of each of its gates")
    no_repeat = no_repeat and _repeat_reduction_sound(gates, weights)
    if not relabel:
        symmetries = LINE_PERMUTATIONS[:1]
    codes = _codes_of(gates)
    pairs = np.zeros((len(GATES), 2), dtype=np.int64)  # weight by gate id
    pairs[codes] = weights
    # Conjugation joins the group where it moves some gate and keeps every cost.
    conj = (
        relabel
        and any(g.kind == "V" for g in gates)
        and bool((pairs[_relabel_table(gates)[_N_PERMS, codes]] == pairs[codes]).all())
    )
    # Input masks join it where every NOT weighs (0, 0): a NOT layer at a
    # circuit's input then costs nothing and commutes with every gate.
    not_ids = {g.target: GATE_CODES[g] for g in gates if g.kind == "NOT"}
    masks = relabel and len(not_ids) == N_LINES and not pairs[list(not_ids.values())].any()
    orbits = _orbit_tables(gates, symmetries, conj, masks)
    if (pairs[orbits.relabel[orbits.perm_ids][:, codes]] != pairs[codes]).any():
        raise ValueError("gate weights must be invariant under the line symmetries")
    # Record columns per settled function, in recording order: per mask in
    # the group, 0 first, the function, then its non-identity relabelings in
    # line_symmetries() order, each then masked.  Conjugation fixes every
    # function and adds no column.
    n_masks = N_ROWS if masks else 1
    col_perm = np.tile(np.array([0, *orbits.perm_ids.tolist()], dtype=np.int8), n_masks)
    col_mask = np.repeat(np.arange(n_masks, dtype=np.uint8), len(col_perm) // n_masks)
    col_sigma = col_perm + _N_SIDS * col_mask.astype(np.int8)
    nots = np.array([not_ids[line] for line in range(N_LINES)] if masks else [], dtype=np.uint8)
    root, root_sigma = _canonical(np.array([CircuitState.identity().pack()], np.uint64), orbits)
    root_rank = _ranks_of(root)
    _read_only(col_perm, col_mask, col_sigma, nots, root, root_sigma, root_rank)
    return _Plan(
        _expansion(gates, weights), orbits, no_repeat, max(w[0] for w in weights),
        col_perm, col_mask, col_sigma, nots, root, root_sigma, root_rank,
    )


def _run_search(
    gates: Sequence[Gate],
    weights: Sequence[Cost],
    symmetries: Sequence[LinePerm],
    options: SearchOptions,
    target: int | None = None,
) -> tuple[WitnessPaths, np.ndarray, int]:
    """Core settle loop; stops once every function (or the target rank) is
    recorded.  Returns the witness paths and secondary costs of every
    function in rank order (of the target alone, if given) and the number
    of (canonical) states settled.  A target search compares primary costs
    only: its secondary weights must be 0."""
    key = _plan_key(gates, weights, symmetries, options)
    plan = _search_plan(*key)
    # One slot per function by rank, or the target's one.
    slots = N_FUNCTIONS if target is None else 1
    cost_of = np.full(slots, -1, dtype=np.int64)
    secondary_of = np.zeros(slots, dtype=np.int64)
    state_of = np.full(slots, -1, dtype=np.int32)
    sigma_of = np.zeros(slots, dtype=np.int8)
    remaining = slots

    def record(funcs: np.ndarray, states: np.ndarray, cost: Cost) -> None:
        """Record the functions of Boolean states settled in packed-key order
        (a target search: its target alone) where no earlier drain did."""
        nonlocal remaining
        new, row, sigma = _record(plan, funcs, target)
        if target is None:
            fresh = cost_of[new] < 0
            new, row, sigma = new[fresh], row[fresh], sigma[fresh]
        else:
            new = np.zeros(len(new), dtype=np.intp)  # the target's slot
        cost_of[new], secondary_of[new] = cost
        state_of[new] = states[row]
        sigma_of[new] = sigma
        remaining -= len(new)

    record(plan.root_rank, np.zeros(1, dtype=np.int32), (0, 0))
    settled, visited = [_ROOT_RECORD], 1
    with _Pool() as pool:
        if target is None:
            search = _Search(plan, pool)
            drains = ((*drain, search.settled) for drain in search.drains())
        else:
            drains = _toward(_prefix(*key), pool, target)
        while remaining:
            cost, keys, gidx, settled = next(drains, (None,) * 4)
            if cost is None:
                raise InternalError("internal error: search ended with unsettled functions")
            # States settled so far: the search stops at the drain that
            # records the last function, so later drains count for nothing.
            visited = int(gidx[-1]) + 1
            for ceiling, passed, what in (
                (options.max_cost, cost[0], "cost"), (options.max_states, visited, "state"),
            ):
                if ceiling is not None and passed > ceiling:
                    raise BudgetExceeded(
                        f"{what} ceiling {ceiling} reached with "
                        f"{remaining} function(s) unsettled"
                    )
            funcs, states = _boolean_states(keys, gidx)
            if len(funcs):
                record(funcs, states, cost)
    paths = _witness_paths(plan, cost_of, state_of, sigma_of, settled)
    return paths, secondary_of, visited


def _plan_key(
    gates: Sequence[Gate], weights: Sequence[Cost], symmetries: Sequence[LinePerm],
    options: SearchOptions,
) -> tuple:
    """The key of ``_search_plan`` and ``_prefix`` for a search."""
    return (tuple(gates), tuple(weights), tuple(symmetries),
            options.no_repeat_placement, options.settle_relabelings)


def _boolean_states(keys: np.ndarray, gidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The function ranks of the Boolean states among a drain's ``keys``,
    and their settle indices."""
    boolean = (keys & _ALL_FLAGS) == _ZERO
    if not boolean.any():
        return np.zeros(0, dtype=np.int32), gidx[:0]
    return _ranks_of(keys[boolean]), gidx[boolean]


def _record(
    plan: _Plan, funcs: np.ndarray, target: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What Boolean states of the functions ``funcs``, settled in packed-key
    order, record with all their record columns: per rank recorded, its
    first record (the first of a rank wins), as the rank, the row of its
    state in ``funcs`` and the column's sigma id.  With ``target``, the
    target's first record alone, at its first candidate, the index
    ``np.unique`` would return for it."""
    candidates = rank_tables().relabeled[funcs[:, None], plan.col_perm]
    if plan.orbits.masks:
        candidates = _input_masked()[candidates, plan.col_mask]
    candidates = candidates.ravel()
    if target is None:
        ranks, first = np.unique(candidates, return_index=True)
    else:
        first = np.flatnonzero(candidates == target)[:1]
        ranks = candidates[first]
    row, col = np.divmod(first, len(plan.col_perm))
    return ranks, row, plan.col_sigma[col]


def _witness_paths(
    plan: _Plan, cost_of: np.ndarray, state_of: np.ndarray, sigma_of: np.ndarray,
    settled: Sequence[tuple[np.ndarray, ...]],
) -> WitnessPaths:
    """The witness of each slot: the path to its settled state
    ``state_of`` over the ``settled`` records, each gate mapped through the
    slot's sigma, after the input NOTs of its mask where masks are in the
    group."""
    orbits = plan.orbits
    # The states the slots use, each once: a target's one slot needs no unique.
    states, rows = (np.unique(state_of, return_inverse=True) if len(state_of) > 1
                    else (state_of, np.zeros(len(state_of), dtype=np.intp)))
    paths, lengths, path_sigma = _extract_paths(
        states, *map(np.concatenate, zip(*settled)), orbits, plan.root_sigma
    )
    lengths = lengths[rows]
    ids = orbits.relabel[sigma_of[:, None], paths[rows]]
    ids[np.arange(ids.shape[1]) >= lengths[:, None]] = len(GATES)
    if orbits.masks:
        prefix = orbits.compose[sigma_of, path_sigma[rows]] // _N_SIDS
        ids, lengths = _with_not_prefix(ids, lengths, prefix, plan.not_ids, len(GATES))
    return WitnessPaths(cost_of, ids, lengths)


def _extract_paths(
    states: np.ndarray, pred: np.ndarray, gate_ids: np.ndarray,
    sigma: np.ndarray, orbits: _Orbits, root_sigma: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate-id paths from the root to each state, by one pointer walk over
    all of them: a padded uint8 matrix (a row per state), the lengths, and
    the composition of each path's sigmas, ending with ``root_sigma``, the
    root's.  The root, state 0, is its own predecessor, of sigma 0 (the
    identity), so a walk that reached it stays there unchanged.  Each
    stored gate is mapped through the composition of the sigmas from its
    own state to the path's end."""
    cur, perm = states, sigma[states]
    chain, perms = [], []  # chain[d][i]: the d-th state back from state i
    while cur.any():
        chain.append(cur)
        perms.append(perm)
        cur = pred[cur]
        perm = orbits.compose[perm, sigma[cur]]
    perm = orbits.compose[perm, root_sigma]
    if not chain:
        return np.zeros((len(cur), 0), dtype=np.uint8), np.zeros(len(cur), np.int32), perm
    chain = np.stack(chain, axis=1)
    back = orbits.relabel[np.stack(perms, axis=1), gate_ids[chain]]
    lengths = np.count_nonzero(chain, axis=1).astype(np.int32)
    src = lengths[:, None] - 1 - np.arange(chain.shape[1])
    paths = back[np.arange(len(back))[:, None], np.maximum(src, 0)]
    paths[src < 0] = 0
    return paths, lengths, perm


def _with_not_prefix(
    ids: np.ndarray, lengths: np.ndarray, masks: np.ndarray, nots: np.ndarray, pad: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each witness (a row of ``ids`` padded with ``pad``) after the input
    NOT layer of its mask: NOT a for mask bit 4, b for 2, c for 1, whose ids
    are ``nots``."""
    bits = (masks[:, None] >> np.array([2, 1, 0])) & 1
    row = np.concatenate([np.where(bits, nots, pad).astype(np.uint8), ids], axis=1)
    row = row[np.arange(len(row))[:, None], np.argsort(row == pad, axis=1, kind="stable")]
    lengths = lengths + bits.sum(axis=1, dtype=lengths.dtype)
    return np.ascontiguousarray(row[:, :lengths.max(initial=0)]), lengths


#: Controlled gates as powers of V: V * V = CNOT, V * CNOT = V+, V * V+ = I.
_V_POWER = {"V": 1, "CNOT": 2, "V+": 3}


def _repeat_reduction_sound(gates: Sequence[Gate], weights: Sequence[Cost]) -> bool:
    """Whether the gate weights leave the repeated-placement reduction sound."""
    weight_of = {g.kind: w for g, w in zip(gates, weights)}
    power = {_V_POWER[k]: w for k, w in weight_of.items() if k in _V_POWER}
    # (1): two gates on one placement compose to the identity or, on a
    # controlled placement, to the gate whose V power is the sum of theirs;
    # skipping the pair is sound only if that gate never costs more.
    return all(
        (a + b) % 4 == 0 or power[(a + b) % 4] <= (wa[0] + wb[0], wa[1] + wb[1])
        for a, wa in power.items()
        for b, wb in power.items()
    )


@functools.cache
def weighted_gates(
    metric: CostMetric | None, topology: Topology, library: str = "NCV",
    secondary: CostMetric | None = None,
) -> tuple[tuple[Gate, ...], tuple[Cost, ...]]:
    """The gate list of ``library`` on ``topology`` and each gate's weight,
    built once per key: an NCV gate weighs (its ``metric`` weight, its
    ``secondary`` weight or 0), an NCT gate (1, 0), the metric only naming
    the table.  ValueError for an NCV list without a metric, a topology that
    is not connected, or an NCT list without a Toffoli gate."""
    if not topology.is_connected():
        raise ValueError("topology must be connected")
    gates = enumerate_gates(topology, library)
    if library == "NCT":
        if not any(g.kind == "TOF" for g in gates):
            raise ValueError(f"the {topology.slug} topology places no Toffoli gate, and NOT "
                             "and CNOT reach only the affine functions on it")
        return gates, ((1, 0),) * len(gates)
    if metric is None:
        raise ValueError("an NCV search needs a cost metric, and the metric is None")
    return gates, tuple((metric.weight(g), secondary.weight(g) if secondary else 0) for g in gates)


def settle_all(
    metric: CostMetric | None,
    topology: Topology = FULL_TOPOLOGY,
    options: SearchOptions | None = None,
    library: str = "NCV",
    mode: str = "metric",
    secondary: CostMetric | None = None,
) -> SynthesisTable:
    """Settle optimal circuits for all 40,320 reversible functions under the
    weights of ``weighted_gates`` (ValueError as it raises): (primary,
    secondary) costs minimized lexicographically, so each NCV witness is,
    among the ``metric``-optimal circuits, one of least ``secondary`` cost.
    The table's ``mode`` is ``mode``, and its ``states_visited`` counts the
    orbit representatives settled."""
    gates, weights = weighted_gates(metric, topology, library, secondary)
    paths, secondary_costs, total = _run_search(gates, weights, topology.line_symmetries(),
                                                options or SearchOptions())
    return SynthesisTable(metric, topology, library, gates, paths, secondary_costs,
                          mode=mode, states_visited=total)


def synthesize_one(
    func: Sequence[int],
    metric: CostMetric,
    topology: Topology = FULL_TOPOLOGY,
    options: SearchOptions | None = None,
) -> tuple[int, Circuit]:
    """Optimal cost and witness for one function; stops as soon as it
    settles.  Without a budget, a function that the drains its plan's
    earlier calls logged already record is read from that log; any other
    call replays those drains and searches on from its meeting drain (see
    "The prefix" in the module docstring).  Either way the result does not
    depend on the earlier calls.  Calls may come from several threads at
    once."""
    target = function_rank(func)
    options = options or SearchOptions()
    gates, weights = weighted_gates(metric, topology)
    symmetries = topology.line_symmetries()
    paths = None
    if options.max_cost is None and options.max_states is None:
        # A budget counts the call's own search, so a budgeted call replays.
        paths = _prefix(*_plan_key(gates, weights, symmetries, options)).answer(target)
    if paths is None:
        paths = _run_search(gates, weights, symmetries, options, target=target)[0]
    codes = paths.gate_ids[0, :paths.lengths[0]].tobytes()
    return int(paths.cost[0]), _circuit_of_codes(codes, "NCV")


#: Most states ``exhaustive_oracle`` records before it raises
#: BudgetExceeded: a peak RSS of about 60 MiB, reached in about 20 s.  On the
#: full topology ncv-012 records 2,000 states at reach 3, weights (0, 1, 1,
#: 1) 17,888 and ncv-111 35,447 at reach 5; zero-weight V gates make
#: millions of states of cost 0.
ORACLE_MAX_STATES = 200_000


def exhaustive_oracle(
    metric: CostMetric,
    topology: Topology = FULL_TOPOLOGY,
    max_cost: int = 3,
) -> dict[tuple[int, ...], int]:
    """Reference cost table by plain enumeration, for validating the engine.

    Walks every legal gate sequence of cost <= max_cost with no search
    reductions at all (only state deduplication), using the object-level
    gate semantics rather than the packed-key engine.  Feasible for small
    ceilings only (roughly max_cost <= 5 under unit weights): past
    ``ORACLE_MAX_STATES`` recorded states it raises BudgetExceeded.
    """
    gates = enumerate_gates(topology, "NCV")
    weights = [metric.weight(g) for g in gates]
    start = CircuitState.identity().pack()
    dist: dict[int, int] = {start: 0}
    settled: set[int] = set()
    buckets: dict[int, list[int]] = {0: [start]}
    results: dict[tuple[int, ...], int] = {}
    for cost in range(max_cost + 1):
        queue = buckets.pop(cost, [])
        i = 0
        while i < len(queue):
            key = queue[i]
            i += 1
            if key in settled or dist.get(key) != cost:
                continue
            settled.add(key)
            state = CircuitState.unpack(key)
            if state.is_boolean:
                results[state.permutation()] = cost
            for gate, w in zip(gates, weights):
                new_cost = cost + w
                if new_cost > max_cost:
                    continue
                try:
                    new_state = apply_gate(state, gate)
                except QuantumControl:
                    continue
                new_key = new_state.pack()
                if new_key in settled:
                    continue
                best = dist.get(new_key)
                if best is None or new_cost < best:
                    dist[new_key] = new_cost
                    if len(dist) > ORACLE_MAX_STATES:
                        raise BudgetExceeded(
                            f"exhaustive_oracle recorded more than {ORACLE_MAX_STATES} states "
                            f"of cost at most {max_cost}"
                        )
                    if new_cost == cost:
                        queue.append(new_key)
                    else:
                        buckets.setdefault(new_cost, []).append(new_key)
    return results
