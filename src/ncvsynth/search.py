"""Cost-bucketed uniform-cost search over packed quaternary states.

The search runs Dijkstra with a bucket queue (Dial's structure) from the
identity truth table.  States are 48-bit packed keys (8 rows x 3 lines x 2
bits); a state is settled the first time its bucket is drained at its
recorded cost, so the first recorded cost of a reversible function is its
true minimum.  Zero-weight gates re-insert into the current bucket, which is
processed to exhaustion.

Costs are (primary, secondary) integer pairs, and a heap orders the bucket
keys lexicographically.  A plain metric gives every gate secondary weight 0;
a secondary metric, or the NCT modes' negated substitution costs, pick among
the primary-optimal circuits.  Dijkstra is sound because no gate weighs less
than (0, 0): a gate of primary weight >= 1 may carry a negative secondary
weight, and a gate of primary weight 0 may not.  Weights below (0, 0) are
rejected with ValueError.

Expansion is vectorized with numpy: each bucket's candidates are produced
per-gate as uint64 batches, deduplicated, and filtered against the settled
set with sorted-array searches.  Ties between equal-cost paths to the same
state break by (parent settle index, gate enumeration index) - the order a
scalar queue-based search would consider them - and within a bucket states
settle in packed-key order, which makes every witness reproducible.

Optional search reductions (all individually toggleable):

1. never extend a path with a gate whose (controls, target) placement equals
   the placement of the gate that produced the node (two such gates compose
   to the identity or to one gate on that placement; the search turns this
   off for weights under which that gate can cost more than the two, such
   as w_cnot > 2 w_v);
2. never apply a controlled-V+ to a fully Boolean state (a V+ opening a
   quantum excursion can always be traded for a V by interchanging V and V+
   inside the excursion, at equal cost only when V and V+ weigh the same;
   otherwise the search turns this off);
3. on settling a Boolean state, record all of its line relabelings at the
   same cost with relabeled witnesses;
4. (off by default) on recording a function, record its inverse too, with
   the reversed/inverted witness.

Functions are handled by rank (their lexicographic index in 0..40319, see
:func:`~ncvsynth.model.rank_tables`).  Each drained bucket decodes its
settled Boolean keys to ranks in one batch and records, per state in
packed-key order: its own function, then its image under each non-identity
symmetry in ``line_symmetries()`` order, then (with reduction 4) its inverse
and the inverse's images.  The first record of a rank wins, exactly as a
function-at-a-time loop in that order would decide, so reductions never
change which witness a function gets.  Records are parallel arrays by rank:
primary and secondary cost, settle index, line permutation and an inverted
flag.

When the search ends, one vectorized walk over the predecessor array
extracts the gate-id path of every settle index that a record uses; the
per-state predecessor and gate arrays are then dropped.  A witness is its
path (reversed for an inverted record) mapped through one of the table's
gate maps: the image of every library gate under that record's line
relabeling, after V/V+ inversion for inverted records, built once per table
with the topology check of :func:`~ncvsynth.model.relabel_circuit`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    InternalError,
    InvalidFunction,
    QuantumControl,
    UnknownState,
)
from .model import (
    Circuit,
    CircuitState,
    CostMetric,
    FULL_TOPOLOGY,
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
    invert_circuit,
    rank_tables,
    relabel_circuit,
    vswap,
)

#: A (primary, secondary) cost, ordered lexicographically.
Cost = tuple[int, int]


@dataclass(frozen=True)
class SearchOptions:
    """Pruning toggles and resource ceilings for one search run."""

    no_repeat_placement: bool = True   # reduction (1)
    skip_leading_vplus: bool = True    # reduction (2)
    settle_relabelings: bool = True    # reduction (3)
    settle_inverses: bool = False      # reduction (4)
    max_cost: int | None = None
    max_states: int | None = None


@dataclass(frozen=True)
class FunctionRecord:
    """How one function's witness is rebuilt: a settled path of gate ids,
    then an optional inversion and an optional line relabeling."""

    cost: int
    gate_ids: tuple[int, ...]
    line_perm: LinePerm | None = None
    inverted: bool = False


class _Records(NamedTuple):
    """Per-function records as parallel arrays indexed by function rank."""

    cost: np.ndarray       # int64 primary cost; -1 where never settled
    secondary: np.ndarray  # int64 secondary cost; 0 under a plain metric
    path_row: np.ndarray   # int32 row of ``paths``; -1 where no witness is held
    perm_id: np.ndarray    # int8 index into LINE_PERMUTATIONS (0 = identity)
    inverted: np.ndarray   # bool
    paths: np.ndarray      # uint8 gate-id paths from the root, padded per row
    lengths: np.ndarray    # int32 length of each row's path


class SynthesisTable:
    """Optimal cost and one witness circuit per settled reversible function.

    Functions are stored by rank; the tuple-keyed methods convert at the
    boundary.  A witness is a settled gate-id path, optionally reversed (for
    an inverted record), mapped gate by gate through one of the table's gate
    maps (line relabeling, plus the gate inversion for inverted records).
    """

    def __init__(
        self,
        metric: CostMetric | None,
        topology: Topology,
        library: str,
        gate_list: tuple[Gate, ...],
        records: _Records,
        options: SearchOptions,
        mode: str = "metric",
        states_visited: int = 0,
    ) -> None:
        self.metric = metric
        self.topology = topology
        self.library = library
        self.options = options
        self.mode = mode
        self.states_visited = states_visited
        self._gate_list = gate_list
        self._records = records
        self._settled = np.flatnonzero(records.cost >= 0)
        self._gate_maps: dict[tuple[int, bool], tuple[Gate, ...]] = {}
        self._costs: dict[tuple[int, ...], int] | None = None

    @classmethod
    def from_costs(
        cls, costs: Mapping[tuple[int, ...], int], metric: CostMetric
    ) -> "SynthesisTable":
        """A full-topology NCV table of costs alone; ``witness`` and
        ``record`` raise UnknownState."""
        cost = np.full(N_FUNCTIONS, -1, dtype=np.int64)
        cost[[function_rank(f) for f in costs]] = list(costs.values())
        records = _Records(
            cost,
            np.zeros(N_FUNCTIONS, dtype=np.int64),
            np.full(N_FUNCTIONS, -1, dtype=np.int32),
            np.zeros(N_FUNCTIONS, dtype=np.int8),
            np.zeros(N_FUNCTIONS, dtype=bool),
            np.zeros((0, 0), dtype=np.uint8),
            np.zeros(0, dtype=np.int32),
        )
        return cls(
            metric, FULL_TOPOLOGY, "NCV", enumerate_gates(FULL_TOPOLOGY, "NCV"),
            records, SearchOptions(),
        )

    @property
    def settled_count(self) -> int:
        return len(self._settled)

    @property
    def complete(self) -> bool:
        return self.settled_count == N_FUNCTIONS

    def __len__(self) -> int:
        return self.settled_count

    def __contains__(self, func) -> bool:
        try:
            rank = function_rank(func)
        except (InvalidFunction, TypeError, ValueError):
            return False
        return bool(self._records.cost[rank] >= 0)

    def functions(self) -> Iterator[tuple[int, ...]]:
        """Settled functions in lexicographic order (the serialization order)."""
        return map(tuple, rank_tables().outputs[self._settled].tolist())

    @property
    def costs(self) -> Mapping[tuple[int, ...], int]:
        if self._costs is None:
            self._costs = dict(self.items())
        return self._costs

    def _rank(self, func: Sequence[int]) -> int:
        rank = function_rank(func)
        if self._records.cost[rank] < 0:
            raise UnknownState(f"function {rank_tables().function(rank)} was never settled")
        return rank

    def _path(self, rank: int) -> list[int]:
        rec = self._records
        row = int(rec.path_row[rank])
        if row < 0:
            raise UnknownState(
                f"the table holds no witness for {rank_tables().function(rank)}"
            )
        return rec.paths[row, :rec.lengths[row]].tolist()

    def cost_of(self, func: Sequence[int]) -> int:
        return int(self._records.cost[self._rank(func)])

    def secondary_of(self, func: Sequence[int]) -> int:
        """The witness's secondary cost: under ``settle_all``'s ``secondary``
        metric, or by the second components of pair weights; 0 for a table
        settled under a single metric."""
        return int(self._records.secondary[self._rank(func)])

    def secondaries(self) -> dict[tuple[int, ...], int]:
        """``secondary_of`` of every settled function, in one pass."""
        secondary = self._records.secondary[self._settled].tolist()
        return dict(zip(self.functions(), secondary))

    def record(self, func: Sequence[int]) -> FunctionRecord:
        rank = self._rank(func)
        perm_id = int(self._records.perm_id[rank])
        return FunctionRecord(
            int(self._records.cost[rank]),
            tuple(self._path(rank)),
            LINE_PERMUTATIONS[perm_id] if perm_id else None,
            bool(self._records.inverted[rank]),
        )

    def witness(self, func: Sequence[int]) -> Circuit:
        """Materialize the stored optimal circuit for one function."""
        rank = self._rank(func)
        ids = self._path(rank)
        inverted = bool(self._records.inverted[rank])
        if inverted:
            ids.reverse()
        gates = self._mapped_gates(int(self._records.perm_id[rank]), inverted)
        return Circuit(tuple([gates[i] for i in ids]), self.library)

    def _mapped_gates(self, perm_id: int, inverted: bool) -> tuple[Gate, ...]:
        """The image of every library gate, in library order, under one
        witness transformation: ``relabel_circuit(vswap(invert_circuit(c)),
        perm)`` for an inverted record, ``relabel_circuit(c, perm)`` otherwise.
        A witness lists the images of its (reversed, if inverted) path."""
        gates = self._gate_maps.get((perm_id, inverted))
        if gates is None:
            circuit = Circuit(self._gate_list, self.library)
            if inverted:
                # vswap keeps the inverse witness at the source's exact cost
                # even for metrics weighing V and V+ differently.
                circuit = Circuit(vswap(invert_circuit(circuit)).gates[::-1], self.library)
            gates = relabel_circuit(circuit, LINE_PERMUTATIONS[perm_id], self.topology).gates
            self._gate_maps[(perm_id, inverted)] = gates
        return gates

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return zip(self.functions(), self._records.cost[self._settled].tolist())


# --------------------------------------------------------------------------
# Packed-state helpers

_U64 = np.uint64


def _bool_mask(line: int) -> int:
    return sum(1 << (bit_offset(r, line) + 1) for r in range(N_ROWS))

def _flag_mask(line: int) -> int:
    return sum(1 << bit_offset(r, line) for r in range(N_ROWS))


_BOOL = tuple(_bool_mask(l) for l in range(N_LINES))
_FLAG = tuple(_flag_mask(l) for l in range(N_LINES))
_ALL_FLAGS = _U64(_FLAG[0] | _FLAG[1] | _FLAG[2])


def _shifted(x: np.ndarray, delta: int) -> np.ndarray:
    return x << _U64(delta) if delta >= 0 else x >> _U64(-delta)


class _VGate:
    """One library gate compiled to vectorized packed-key arithmetic."""

    __slots__ = ("gid", "gate", "weight", "placement_id", "control_flags", "is_vplus")

    def __init__(self, gid: int, gate: Gate, weight: Cost, placement_id: int) -> None:
        self.gid = gid
        self.gate = gate
        self.weight = weight
        self.placement_id = placement_id
        mask = 0
        for c in gate.controls:
            mask |= _FLAG[c]
        self.control_flags = _U64(mask)
        self.is_vplus = gate.kind == "V+"

    def apply(self, keys: np.ndarray) -> np.ndarray:
        g = self.gate
        t = g.target
        if g.kind == "NOT":
            return keys ^ _U64(_BOOL[t])
        if g.kind == "CNOT":
            c = g.controls[0]
            return keys ^ _shifted(keys & _U64(_BOOL[c]), 2 * (t - c))
        if g.kind == "TOF":
            c1, c2 = g.controls
            s1 = _shifted(keys & _U64(_BOOL[c1]), 2 * (t - c1))
            s2 = _shifted(keys & _U64(_BOOL[c2]), 2 * (t - c2))
            return keys ^ (s1 & s2)
        # V / V+: move the control's Boolean bits onto the target's flag
        # positions, then add +1 / +3 (mod 4) on the selected 2-bit fields.
        c = g.controls[0]
        sel = _shifted(keys & _U64(_BOOL[c]), 2 * (t - c) - 1)
        if g.kind == "V":
            return keys ^ sel ^ ((keys & sel) << _U64(1))
        return keys ^ sel ^ (((keys & sel) ^ sel) << _U64(1))


def _vector_gates(gates: Sequence[Gate], weights: Sequence[Cost]) -> list[_VGate]:
    placements: dict[tuple, int] = {}
    out = []
    for gid, (gate, w) in enumerate(zip(gates, weights)):
        pid = placements.setdefault(gate.placement, len(placements))
        out.append(_VGate(gid, gate, w, pid))
    return out


def _identity_key() -> int:
    return CircuitState.identity().pack()


_OUT_SHIFTS = [
    tuple(bit_offset(r, l) + 1 for l in range(N_LINES)) for r in range(N_ROWS)
]


def _ranks_of(keys: np.ndarray) -> np.ndarray:
    """Rank of the realized function of each (Boolean) packed key."""
    one = _U64(1)
    code = np.zeros(len(keys), dtype=np.uint64)
    for sa, sb, sc in _OUT_SHIFTS:
        out = (
            ((keys >> _U64(sa)) & one) << _U64(2)
            | ((keys >> _U64(sb)) & one) << one
            | ((keys >> _U64(sc)) & one)
        )
        code = (code << _U64(3)) | out
    return rank_tables().ranks_of_codes(code.astype(np.int32))


def _assert_projection_permutation(keys: np.ndarray) -> None:
    """Vectorized check that Boolean projections are permutations of 0..7."""
    occupancy = np.zeros(len(keys), dtype=np.uint64)
    one = _U64(1)
    for sa, sb, sc in _OUT_SHIFTS:
        out = (
            ((keys >> _U64(sa)) & one) * _U64(4)
            + ((keys >> _U64(sb)) & one) * _U64(2)
            + ((keys >> _U64(sc)) & one)
        )
        occupancy |= one << out
    if not bool((occupancy == _U64(0xFF)).all()):
        raise InternalError(
            "internal error: reached a state whose Boolean projection is not "
            "a permutation"
        )


# --------------------------------------------------------------------------
# The engine

def _run_search(
    gates: Sequence[Gate],
    weights: Sequence[Cost],
    symmetries: Sequence[LinePerm],
    options: SearchOptions,
    targets: np.ndarray | None = None,
) -> tuple[_Records, int]:
    """Core settle loop; stops once every function (or every target rank) is
    recorded.  Returns the records (of the targets alone, if given) and the
    number of states settled."""
    if min(weights) < (0, 0):
        raise ValueError(f"gate weight {min(weights)} is below (0, 0)")
    vgates = _vector_gates(gates, weights)
    n_gates = len(vgates)
    ranks = rank_tables()

    root = np.array([_identity_key()], dtype=np.uint64)
    pred_parts = [np.array([-1], dtype=np.int32)]
    gate_parts = [np.array([255], dtype=np.uint8)]
    total = 1
    sorted_keys = root.copy()

    cost_of = np.full(N_FUNCTIONS, -1, dtype=np.int64)
    secondary_of = np.zeros(N_FUNCTIONS, dtype=np.int64)
    state_of = np.full(N_FUNCTIONS, -1, dtype=np.int32)
    perm_of = np.zeros(N_FUNCTIONS, dtype=np.int8)
    inverted_of = np.zeros(N_FUNCTIONS, dtype=bool)
    remaining = N_FUNCTIONS

    # Candidate columns per settled function, in recording order: the
    # function, its non-identity relabelings in line_symmetries() order, then
    # (with reduction (4)) its inverse and the inverse's relabelings.
    sym_ids = [
        LINE_PERMUTATIONS.index(p) for p in symmetries if p != LINE_PERMUTATIONS[0]
    ] if options.settle_relabelings else []
    col_perm = np.array([0, *sym_ids], dtype=np.int8)
    col_inverted = np.zeros(len(col_perm), dtype=bool)
    if options.settle_inverses:
        col_perm = np.concatenate([col_perm, col_perm])
        col_inverted = np.repeat([False, True], len(sym_ids) + 1)
    width = len(col_perm)

    def record(funcs: np.ndarray, states: np.ndarray, cost: Cost) -> None:
        """Record the functions of Boolean states settled in packed-key order
        with all their candidate symmetries; the first record of a function
        wins."""
        nonlocal remaining
        parts = [funcs[:, None], ranks.relabeled[funcs[:, None], sym_ids]]
        if options.settle_inverses:
            inv = ranks.inverse[funcs]
            parts += [inv[:, None], ranks.relabeled[inv[:, None], sym_ids]]
        candidates = np.concatenate(parts, axis=1).ravel()
        uniq, first = np.unique(candidates, return_index=True)
        fresh = cost_of[uniq] < 0
        new, first = uniq[fresh], first[fresh]
        row, col = np.divmod(first, width)
        cost_of[new], secondary_of[new] = cost
        state_of[new] = states[row]
        perm_of[new] = col_perm[col]
        inverted_of[new] = col_inverted[col]
        remaining -= len(new)

    def done() -> bool:
        if targets is not None:
            return bool((cost_of[targets] >= 0).all())
        return remaining == 0

    def result() -> tuple[_Records, int]:
        if targets is not None:
            keep = np.zeros(N_FUNCTIONS, dtype=bool)
            keep[targets] = True
            cost_of[~keep] = -1
        held = cost_of >= 0
        states, rows = np.unique(state_of[held], return_inverse=True)
        path_row = np.full(N_FUNCTIONS, -1, dtype=np.int32)
        path_row[held] = rows
        paths, lengths = _extract_paths(
            states, np.concatenate(pred_parts), np.concatenate(gate_parts)
        )
        records = _Records(
            cost_of, secondary_of, path_row, perm_of, inverted_of, paths, lengths
        )
        return records, total

    record(np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32), (0, 0))
    if done():
        return result()

    buckets: dict[Cost, list] = {}
    heap: list[Cost] = []

    def enqueue(cost: Cost, keys, preds, gids) -> None:
        if len(keys) == 0:
            return
        if cost not in buckets:
            buckets[cost] = []
            heapq.heappush(heap, cost)
        buckets[cost].append((keys, preds, gids))

    def expand(keys: np.ndarray, gidx: np.ndarray, plc: np.ndarray, cost: Cost) -> None:
        is_boolean = (keys & _ALL_FLAGS) == _U64(0)
        for vg in vgates:
            mask = None
            if vg.control_flags:
                mask = (keys & vg.control_flags) == _U64(0)
            if options.no_repeat_placement:
                m = plc != np.uint8(vg.placement_id)
                mask = m if mask is None else mask & m
            if options.skip_leading_vplus and vg.is_vplus:
                mask = ~is_boolean if mask is None else mask & ~is_boolean
            if mask is None:
                src_keys, src_gidx = keys, gidx
            else:
                src_keys, src_gidx = keys[mask], gidx[mask]
            if len(src_keys) == 0:
                continue
            new_keys = vg.apply(src_keys)
            pos = np.searchsorted(sorted_keys, new_keys)
            pos[pos >= len(sorted_keys)] = len(sorted_keys) - 1
            fresh = sorted_keys[pos] != new_keys
            enqueue(
                (cost[0] + vg.weight[0], cost[1] + vg.weight[1]),
                new_keys[fresh],
                src_gidx[fresh],
                np.full(int(fresh.sum()), vg.gid, dtype=np.uint8),
            )

    placement_of_gate = np.array([vg.placement_id for vg in vgates], dtype=np.uint8)
    expand(root, np.array([0], dtype=np.int32), np.array([255], dtype=np.uint8), (0, 0))

    stop = False
    while heap and not stop:
        cost = heapq.heappop(heap)
        if options.max_cost is not None and cost[0] > options.max_cost:
            raise BudgetExceeded(
                f"cost ceiling {options.max_cost} reached with "
                f"{remaining} function(s) unsettled"
            )
        while not stop and buckets.get(cost):
            entries = buckets[cost]
            buckets[cost] = []
            keys = np.concatenate([e[0] for e in entries])
            preds = np.concatenate([e[1] for e in entries])
            gids = np.concatenate([e[2] for e in entries])
            # Tie-break equal-cost paths by (parent settle index, gate index).
            tie = preds.astype(np.int64) * n_gates + gids
            order = np.lexsort((tie, keys))
            keys_sorted = keys[order]
            lead = np.empty(len(keys_sorted), dtype=bool)
            if len(lead):
                lead[0] = True
                lead[1:] = keys_sorted[1:] != keys_sorted[:-1]
            winners = order[lead]
            unique_keys = keys_sorted[lead]
            pos = np.searchsorted(sorted_keys, unique_keys)
            pos[pos >= len(sorted_keys)] = len(sorted_keys) - 1
            fresh = sorted_keys[pos] != unique_keys
            new_keys = unique_keys[fresh]
            if len(new_keys) == 0:
                continue
            winners = winners[fresh]
            new_pred = preds[winners]
            new_gate = gids[winners]
            new_plc = placement_of_gate[new_gate]

            _assert_projection_permutation(new_keys)
            gidx = np.arange(total, total + len(new_keys), dtype=np.int32)
            pred_parts.append(new_pred)
            gate_parts.append(new_gate)
            total += len(new_keys)
            if options.max_states is not None and total > options.max_states:
                raise BudgetExceeded(
                    f"state ceiling {options.max_states} reached with "
                    f"{remaining} function(s) unsettled"
                )
            sorted_keys = np.insert(
                sorted_keys, np.searchsorted(sorted_keys, new_keys), new_keys
            )

            boolean = (new_keys & _ALL_FLAGS) == _U64(0)
            if bool(boolean.any()):
                record(_ranks_of(new_keys[boolean]), gidx[boolean], cost)
                stop = done()
            if not stop:
                expand(new_keys, gidx, new_plc, cost)
        buckets.pop(cost, None)

    return result()


def _extract_paths(
    states: np.ndarray, pred: np.ndarray, gate_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gate-id paths from the root to each state, by one pointer walk over
    all of them: a padded uint8 matrix (a row per state) and the lengths."""
    cur = states.astype(np.int64)
    lengths = np.zeros(len(cur), dtype=np.int32)
    steps = []  # steps[d][i]: the d-th gate back from state i
    while True:
        live = cur > 0
        if not live.any():
            break
        steps.append(np.where(live, gate_ids[cur], 0).astype(np.uint8))
        lengths += live
        cur = np.where(live, pred[cur], 0)
    if not steps:
        return np.zeros((len(cur), 0), dtype=np.uint8), lengths
    back = np.stack(steps, axis=1)
    src = lengths[:, None] - 1 - np.arange(back.shape[1])
    paths = np.take_along_axis(back, np.maximum(src, 0), axis=1)
    paths[src < 0] = 0
    return paths, lengths


#: Controlled gates as powers of V: V * V = CNOT, V * CNOT = V+, V * V+ = I.
_V_POWER = {"V": 1, "CNOT": 2, "V+": 3}


def _effective_options(
    options: SearchOptions, gates: Sequence[Gate], weights: Sequence[Cost]
) -> SearchOptions:
    """Switch off the reductions that the gate weights make unsound."""
    weight_of = {g.kind: w for g, w in zip(gates, weights)}
    power = {_V_POWER[k]: w for k, w in weight_of.items() if k in _V_POWER}
    # (1): two gates on one placement compose to the identity or, on a
    # controlled placement, to the gate whose V power is the sum of theirs;
    # skipping the pair is sound only if that gate never costs more.
    if options.no_repeat_placement and not all(
        (a + b) % 4 == 0 or power[(a + b) % 4] <= (wa[0] + wb[0], wa[1] + wb[1])
        for a, wa in power.items()
        for b, wb in power.items()
    ):
        options = replace(options, no_repeat_placement=False)
    # (2) trades a V+ for a V, which keeps the cost only if they weigh the same.
    if options.skip_leading_vplus and weight_of.get("V") != weight_of.get("V+"):
        options = replace(options, skip_leading_vplus=False)
    return options


def settle_all(
    metric: CostMetric | None,
    topology: Topology = FULL_TOPOLOGY,
    options: SearchOptions | None = None,
    library: str = "NCV",
    weights: Sequence[Cost] | None = None,
    mode: str = "metric",
    secondary: CostMetric | None = None,
) -> SynthesisTable:
    """Settle optimal circuits for all 40,320 reversible functions.

    Costs are (primary, secondary) pairs minimized lexicographically.  By
    default the primary weights come from ``metric`` and the secondary ones
    from ``secondary`` (0 without it), so each witness is, among the
    ``metric``-optimal circuits, one of least ``secondary`` cost.
    ``weights`` overrides the per-gate pairs (used by the NCT cost modes);
    they must depend on the gate kind alone.
    """
    options = options or SearchOptions()
    if not topology.is_connected():
        raise ValueError("topology must be connected for a complete search")
    gates = enumerate_gates(topology, library)
    if weights is None:
        weights = [
            (metric.weight(g), secondary.weight(g) if secondary else 0) for g in gates
        ]
    options = _effective_options(options, gates, weights)
    records, total = _run_search(gates, weights, topology.line_symmetries(), options)
    table = SynthesisTable(
        metric, topology, library, gates, records,
        options, mode=mode, states_visited=total,
    )
    if not table.complete:
        raise InternalError("internal error: search ended with unsettled functions")
    return table


def synthesize_one(
    func: Sequence[int],
    metric: CostMetric,
    topology: Topology = FULL_TOPOLOGY,
    options: SearchOptions | None = None,
) -> tuple[int, Circuit]:
    """Optimal cost and witness for one function; stops as soon as it settles."""
    target = function_rank(func)
    options = options or SearchOptions()
    if not topology.is_connected():
        raise ValueError("topology must be connected")
    gates = enumerate_gates(topology, "NCV")
    weights = [(metric.weight(g), 0) for g in gates]
    options = _effective_options(options, gates, weights)
    records, total = _run_search(
        gates, weights, topology.line_symmetries(), options,
        targets=np.array([target]),
    )
    table = SynthesisTable(
        metric, topology, "NCV", gates, records, options, states_visited=total,
    )
    return table.cost_of(func), table.witness(func)


def reconstruct_circuit(table: SynthesisTable, state_key: int) -> Circuit:
    """Witness circuit for a settled Boolean state given as a packed key.

    Witnesses are retained per realized function; intermediate non-Boolean
    search states are released once the table is built, so only Boolean keys
    can be reconstructed.
    """
    state = CircuitState.unpack(state_key)
    if not state.is_boolean:
        raise UnknownState("key does not denote a settled Boolean state")
    func = state.permutation()
    if func not in table:
        raise UnknownState(f"function {func} was never settled")
    return table.witness(func)


def exhaustive_oracle(
    metric: CostMetric,
    topology: Topology = FULL_TOPOLOGY,
    max_cost: int = 3,
) -> dict[tuple[int, ...], int]:
    """Reference cost table by plain enumeration, for validating the engine.

    Walks every legal gate sequence of cost <= max_cost with no search
    reductions at all (only state deduplication), using the object-level
    gate semantics rather than the packed-key engine.  Feasible for small
    ceilings only (roughly max_cost <= 5 under unit weights).
    """
    gates = enumerate_gates(topology, "NCV")
    weights = [metric.weight(g) for g in gates]
    start = CircuitState.identity()
    dist: dict[int, int] = {start.pack(): 0}
    settled: set[int] = set()
    buckets: dict[int, list] = {0: [(start.pack(), start)]}
    results: dict[tuple[int, ...], int] = {}
    for cost in range(max_cost + 1):
        queue = buckets.pop(cost, [])
        i = 0
        while i < len(queue):
            key, state = queue[i]
            i += 1
            if key in settled or dist.get(key) != cost:
                continue
            settled.add(key)
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
                    entry = (new_key, new_state)
                    if new_cost == cost:
                        queue.append(entry)
                    else:
                        buckets.setdefault(new_cost, []).append(entry)
    return results
