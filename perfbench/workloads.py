"""The three workloads: certified tables, a CLI session, single-function latency.

Each workload is a round of operations that the benchmark repeats until its
time is up.  An operation is timed around calls into the program only; its
outputs are then checked against ``reference`` outside the timed region.  An
operation that raises or fails a check counts as failed and the run goes on.
Each operation keeps its wall time and its time at the reference speed of
``hostspeed``, which the end-to-end figures use.
"""

from __future__ import annotations

import contextlib
import io as stdio
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import reference as ref

#: Functions per table whose relabelings time model.relabel_function.
RELABEL_SAMPLE = 1000
#: exhaustive_oracle reach per metric: each stays well under a second.
ORACLE_REACH = {"ncv-111": 3, "ncv-012": 3, "ncv-155": 11}
#: The weights that push lexicographic NCT costs past LEX_BASE = 4096.
WIDE_METRIC = "custom:1,300,300"
LEX_GATE_COUNT_FAULT = "not gate-count optimal"


@dataclass
class Op:
    name: str
    seconds: float
    #: ``seconds`` rescaled to the reference speed of ``hostspeed``
    ref_seconds: float
    failures: list[str]
    #: failure text that marks a known program fault, not a benchmark error
    known_fault: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def unexpected(self) -> bool:
        return any(self.known_fault is None or self.known_fault not in f for f in self.failures)


@dataclass
class Run:
    """Operations and measurements of one benchmark process."""

    seed: int
    workdir: Path
    #: the ``hostspeed.Probe`` that samples the host's speed through the run
    probe: object
    tracer: object | None = None
    #: called after every operation, outside its timing
    after_op: Callable[[], None] | None = None
    ops: list[Op] = field(default_factory=list)
    rounds: list[list[Op]] = field(default_factory=list)
    # detail metrics reported by name on their own lines: name -> (values, unit)
    samples: dict[str, tuple[list[float], str]] = field(default_factory=dict)

    def sample(self, name: str, value: float, unit: str) -> None:
        self.samples.setdefault(name, ([], unit))[0].append(value)

    def op(self, name, work, check, known_fault=None):
        """Time ``work()``, then run ``check(result)`` untimed; return the result."""
        failures: list[str] = []
        result = None
        span = self.tracer.span("op", name) if self.tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span:
                result = work()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
        end = perf_counter()
        seconds = end - start
        ref_seconds = self.probe.rescale(start, end)
        if not failures and check is not None:
            try:
                failures += check(result)
            except Exception as exc:  # a check that breaks counts as a failure
                failures.append(f"{name}: check raised {type(exc).__name__}: {exc}")
        self.ops.append(Op(name, seconds, ref_seconds, failures, known_fault))
        self.rounds[-1].append(self.ops[-1])
        if self.after_op is not None:
            self.after_op()
        return result


def _relabel_check(run, model, name, funcs, symmetries):
    """Time the program's relabel_function on a seeded sample and compare it
    with the reference algebra."""
    sample = random.Random(run.seed).sample(sorted(funcs), min(RELABEL_SAMPLE, len(funcs)))
    perms = [p for p in symmetries if p != (0, 1, 2)]
    start = perf_counter()
    images = {p: [model.relabel_function(f, p) for f in sample] for p in perms}
    end = perf_counter()
    calls = len(sample) * len(perms)
    run.sample("model.relabel_function_us",
               run.probe.rescale(start, end) / max(1, calls) * 1e6, "us")
    for p in perms:
        expected = [tuple(row) for row in ref.relabel_functions(np.array(sample), p).tolist()]
        if images[p] != expected:
            return [f"{name}: model.relabel_function disagrees with the reference under {p}"]
    return []


# --------------------------------------------------------------------------
# tables

class Tables:
    """ncv-111/full, ncv-111/path and the NCT gate-count table, each settled,
    summarised, materialised, certified and written; then the lex-max table
    under wide weights, whose witnesses must keep the optimal gate count."""

    name = "tables"

    def __init__(self, nv, seed: int) -> None:
        self.nv = nv
        self.specs = [
            ("full", "ncv-111", "full", ref.row_counts(ref.NCV111_FULL_ROW), ref.NCV111_FULL_WA),
            ("path", "ncv-111", "path", ref.row_counts(ref.NCV111_PATH_ROW),
             ref.weighted_average_text(ref.row_counts(ref.NCV111_PATH_ROW))),
            ("nct", None, "full", ref.row_counts(ref.NCT_GC_ROW), ref.NCT_GC_WA),
        ]
        self.symmetries = {k: ref.line_symmetries(v) for k, v in ref.TOPOLOGY_PAIRS.items()}
        self.oracles: dict = {}
        self.ops_per_round = len(self.specs) + 1

    def round(self, run: Run) -> None:
        from ncvsynth import analysis, io, model, nct, search, verify

        gate_counts = {}
        for key, metric_name, topo_name, counts, wa in self.specs:
            metric = model.METRICS[metric_name] if metric_name else None
            topology = model.TOPOLOGIES[topo_name]
            csv_path = run.workdir / f"table-{key}.csv"

            def work():
                if metric is None:
                    table = nct.settle_all_nct()
                else:
                    table = search.settle_all(metric, topology)
                hist = analysis.histogram(table)
                witnesses = [(f, table.witness(f)) for f in table.functions()]
                verdict = verify.verify_witnesses(witnesses)
                with open(csv_path, "w", newline="") as fh:
                    io.write_table_csv(table.costs, fh)
                return table, hist, witnesses, verdict

            def check(out):
                table, hist, witnesses, (checked, offender) = out
                name = f"table-{key}"
                if metric is not None:
                    run.sample(f"search.states_visited.{key}", table.states_visited, "count")
                failures = []
                if checked != ref.N_FUNCTIONS or offender is not None:
                    failures.append(f"{name}: verify_witnesses checked {checked}, offender {offender}")
                failures += ref.check_histogram(name, hist.counts, counts,
                                                hist.weighted_average_text, wa)
                costs = ref.read_table_csv(csv_path.read_text())
                failures += ref.check_complete(name, costs)
                failures += ref.check_histogram(f"{name} CSV", _histogram(costs), counts)
                weights = ref.METRIC_WEIGHTS[metric_name] if metric else ref.GATE_COUNT_WEIGHTS
                failures += ref.check_circuits(
                    name, ((f, table.cost_of(f), ref.program_gates(w)) for f, w in witnesses),
                    weights, costs,
                )
                failures += ref.check_invariance(name, costs, self.symmetries[topo_name])
                failures += _relabel_check(run, model, name, costs, self.symmetries[topo_name])
                if metric is not None:
                    oracle = self._oracle(metric, topology)
                    failures += ref.check_oracle(name, costs, oracle, ORACLE_REACH[metric_name])
                else:
                    gate_counts.update(costs)
                return failures

            run.op(f"table-{key}", work, check)

        wide = model.CostMetric.parse(WIDE_METRIC)

        def wide_work():
            table = nct.settle_all_nct("lex-max", wide)
            return [(f, table.witness(f)) for f in table.functions()]

        def wide_check(witnesses):
            failures = ref.check_complete("lex-max-wide", dict(witnesses))
            if not gate_counts:
                return failures + ["lex-max-wide: no gate-count table from this round"]
            off = [f for f, w in witnesses if len(w) != gate_counts.get(f)]
            if off:
                failures.append(
                    f"lex-max-wide: {len(off)} witnesses are {LEX_GATE_COUNT_FAULT}, "
                    f"first {ref.format_function(off[0])}"
                )
            bad = ref.unrealized((f, ref.program_gates(w)) for f, w in witnesses)
            if bad:
                failures.append(f"lex-max-wide: {len(bad)} witnesses fail the unitary check")
            return failures

        run.op("lex-max-wide", wide_work, wide_check, known_fault=LEX_GATE_COUNT_FAULT)

    def _oracle(self, metric, topology):
        key = (metric.slug, topology.slug)
        if key not in self.oracles:
            self.oracles[key] = self.nv.exhaustive_oracle(metric, topology, ORACLE_REACH[metric.slug])
        return self.oracles[key]

    def summarize(self, run: Run) -> None:
        for key in ("full", "path", "nct"):
            for op in _ops_named(run, f"table-{key}"):
                run.sample(f"table_{key}_s", op.ref_seconds, "s")
        for op in _ops_named(run, "lex-max-wide"):
            run.sample("lex_max_wide_s", op.ref_seconds, "s")


def _histogram(costs) -> dict[int, int]:
    counts: dict[int, int] = {}
    for c in costs.values():
        counts[c] = counts.get(c, 0) + 1
    return counts


def _ops_named(run: Run, name: str):
    return [op for op in run.ops if op.name == name]


# --------------------------------------------------------------------------
# cli-session

VERIFY_CALLS = 4


class CliSession:
    """A user session through ``ncvsynth.cli`` on a fresh cache directory:
    synth-all (cold), compare (NCT tables cold), compare again (all cached),
    stats, and verify calls on circuits from the written JSONL."""

    name = "cli-session"
    metric = "ncv-012"

    def __init__(self, nv, seed: int) -> None:
        self.nv = nv
        self.seed = seed
        self.symmetries = ref.line_symmetries(ref.TOPOLOGY_PAIRS["full"])
        self.oracle = None
        self.counter = 0
        self.ops_per_round = 4 + VERIFY_CALLS + 1

    def _cli(self, argv):
        from ncvsynth import cli

        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def round(self, run: Run) -> None:
        from ncvsynth import model

        self.counter += 1
        d = run.workdir / f"session-{self.counter}"
        d.mkdir(parents=True)
        cache = d / "cache"
        table_csv, circuits, cmp_csv = d / "table.csv", d / "circuits.jsonl", d / "compare.csv"
        state: dict = {}

        def synth_all():
            return self._cli(["synth-all", "--metric", self.metric, "--out", str(table_csv),
                              "--circuits", str(circuits), "--cache-dir", str(cache)])

        def check_synth_all(out):
            rc, stdout, _ = out
            failures = ref.check_exit_codes([("synth-all", 0, rc)])
            counts, total, wa = ref.read_histogram_text(stdout)
            failures += ref.check_histogram("synth-all output", counts, ref.NCV012_COUNTS,
                                            wa, ref.NCV012_WA)
            costs = ref.read_table_csv(table_csv.read_text())
            state["costs"], state["histogram_text"] = costs, stdout
            failures += ref.check_complete("synth-all CSV", costs)
            failures += ref.check_histogram("synth-all CSV", _histogram(costs), ref.NCV012_COUNTS)
            records = ref.read_table_jsonl(circuits.read_text())
            # keep only the verify cases, not 40,320 records, through compare
            state["verify"] = self._verify_cases(records, d)
            failures += ref.check_circuits("synth-all JSONL", records,
                                           ref.METRIC_WEIGHTS[self.metric], costs)
            failures += ref.check_invariance("synth-all CSV", costs, self.symmetries)
            failures += _relabel_check(run, model, "synth-all", costs, self.symmetries)
            if self.oracle is None:
                self.oracle = self.nv.exhaustive_oracle(
                    model.METRICS[self.metric], model.FULL_TOPOLOGY, ORACLE_REACH[self.metric])
            failures += ref.check_oracle("synth-all CSV", costs, self.oracle,
                                         ORACLE_REACH[self.metric])
            return failures

        run.op("synth-all", synth_all, check_synth_all)

        def compare():
            return self._cli(["compare", "--metric", self.metric, "--out", str(cmp_csv),
                              "--cache-dir", str(cache)])

        def check_compare_cold(out):
            rc, stdout, _ = out
            failures = ref.check_exit_codes([("compare", 0, rc)])
            text = cmp_csv.read_text()
            state["compare"] = (stdout, text)
            rows, summary = ref.read_comparison_csv(text)
            failures += ref.check_complete("comparison", {r[0]: r for r in rows})
            failures += ref.check_comparison_rows(rows, state.get("costs"))
            failures += ref.check_worst_case(rows)
            failures += ref.check_histogram(
                "comparison nct_gc", _histogram({r[0]: r[1] for r in rows}),
                ref.row_counts(ref.NCT_GC_ROW))
            if not any("max_ratio=8.0000" in line and "worst-case" in line for line in summary):
                failures.append("comparison: summary lacks the worst-case max_ratio=8.0000")
            wa_line = [line.split() for line in stdout.splitlines() if line.split()[:1] == ["WA"]]
            if not wa_line or wa_line[0][1:4:2] != [ref.NCT_GC_WA, ref.NCV012_WA]:
                failures.append(f"compare output: WA line {wa_line} lacks "
                                f"{ref.NCT_GC_WA} and {ref.NCV012_WA}")
            return failures

        run.op("compare-cold", compare, check_compare_cold)

        def check_compare_warm(out):
            rc, stdout, _ = out
            failures = ref.check_exit_codes([("compare warm", 0, rc)])
            if state.get("compare") != (stdout, cmp_csv.read_text()):
                failures.append("compare warm: output differs from the cold run's")
            return failures

        run.op("compare-warm", compare, check_compare_warm)

        def check_stats(out):
            rc, stdout, _ = out
            failures = ref.check_exit_codes([("stats", 0, rc)])
            counts, total, wa = ref.read_histogram_text(stdout)
            failures += ref.check_histogram("stats output", counts, ref.NCV012_COUNTS,
                                            wa, ref.NCV012_WA)
            if total != ref.N_FUNCTIONS:
                failures.append(f"stats output: {total} functions")
            return failures

        run.op("stats", lambda: self._cli(["stats", str(table_csv)]), check_stats)

        cases = state.get("verify") or self._verify_cases(None, d)
        for label, circuit_path, func_text, expected in cases:
            run.op(
                label,
                lambda c=circuit_path, f=func_text: self._cli(
                    ["verify", "--circuit", str(c), "--function", f]),
                lambda out, label=label, expected=expected:
                    ref.check_exit_codes([(label, expected, out[0])]),
            )
        shutil.rmtree(d)

    def _verify_cases(self, records, d):
        """Seeded circuits from the JSONL, each paired with its function, and
        one circuit paired with another function (must exit 1)."""
        records = records or [(tuple(range(8)), 0, [])] * (VERIFY_CALLS + 1)
        rng = random.Random(self.seed)
        picks = rng.sample(range(len(records)), VERIFY_CALLS + 1)
        cases = []
        for i, idx in enumerate(picks):
            func, _, gates = records[idx]
            path = d / f"verify-{i}.txt"
            path.write_text(ref.format_circuit_text(gates))
            if i < VERIFY_CALLS:
                cases.append((f"verify-{i}", path, ref.format_function(func), 0))
            else:
                other = records[picks[0]][0]
                if other == func:
                    other = tuple(reversed(func))
                cases.append(("verify-mismatch", path, ref.format_function(other), 1))
        return cases

    def summarize(self, run: Run) -> None:
        for name, metric in (("synth-all", "synth_all_s"), ("compare-cold", "compare_cold_s"),
                             ("compare-warm", "compare_warm_s")):
            for op in _ops_named(run, name):
                run.sample(metric, op.ref_seconds, "s")


# --------------------------------------------------------------------------
# synth-one

METRIC_NAMES = ("ncv-111", "ncv-012", "ncv-155")
TOPOLOGY_NAMES = ("full", "path")
#: Drawn requests per (metric, topology) and NOT/CNOT circuit length 0..4.
DRAWS_PER_LENGTH = 3
MAX_DRAWN_GATES = 4
#: Deep requests: landmark functions with their published ncv-111 costs.
LANDMARKS = {
    "toffoli": ((0, 1, 2, 3, 4, 5, 7, 6), {"full": 5, "path": 9}),
    "negative-control": ((0, 1, 3, 2, 4, 5, 6, 7), {"full": 5}),
    "both-negative": ((1, 0, 2, 3, 4, 5, 6, 7), {"full": 6}),
    "peres": ((0, 1, 2, 3, 6, 7, 5, 4), {"full": 4}),
    "swap-toffoli": ((0, 1, 4, 5, 2, 3, 7, 6), {"path": 6}),
}


@dataclass(frozen=True)
class Request:
    func: tuple[int, ...]
    metric: str
    topology: str
    kind: str            # "shallow" (drawn) or "deep" (landmark)
    bound: int | None    # metric cost of the drawn circuit
    published: int | None


def draw_requests(seed: int) -> list[Request]:
    """The same 120 seeded requests every round, in a seeded order.

    For each metric and topology: three functions realized by random NOT/CNOT
    circuits of each length 0..4 legal in the topology, whose cost bounds the
    optimum from above; and the five landmarks, each under a seeded line
    symmetry of the topology.  A relabeled landmark settles at the same point
    of the search as the landmark itself, so the deep requests cost the same
    work on every seed and the round time does not hang on the draw.
    """
    rng = random.Random(seed)
    requests = []
    for metric in METRIC_NAMES:
        weights = ref.METRIC_WEIGHTS[metric]
        for topology in TOPOLOGY_NAMES:
            pairs = ref.TOPOLOGY_PAIRS[topology]
            for length in range(MAX_DRAWN_GATES + 1):
                for _ in range(DRAWS_PER_LENGTH):
                    gates = []
                    for _ in range(length):
                        if rng.random() < 0.25:
                            gates.append(("NOT", (), rng.randrange(3)))
                        else:
                            c, t = rng.sample(rng.choice(pairs), 2)
                            gates.append(("CNOT", (c,), t))
                    requests.append(Request(ref.boolean_function(gates), metric, topology,
                                            "shallow", ref.circuit_cost(gates, weights), None))
            symmetries = ref.line_symmetries(pairs)
            for func, published in LANDMARKS.values():
                perm = rng.choice(symmetries)
                image = tuple(ref.relabel_functions(np.array([func]), perm)[0].tolist())
                requests.append(Request(image, metric, topology, "deep", None,
                                        published.get(topology) if metric == "ncv-111" else None))
    rng.shuffle(requests)
    return requests


class SynthOne:
    """Closed loop, one client: each request is one synthesize_one call,
    certified by the unitary oracle and rendered as circuit text."""

    name = "synth-one"

    def __init__(self, nv, seed: int) -> None:
        self.nv = nv
        self.requests = draw_requests(seed)
        self.ops_per_round = len(self.requests) + 1
        self.oracles: dict = {}
        self.symmetries = {k: ref.line_symmetries(v) for k, v in ref.TOPOLOGY_PAIRS.items()}
        self.latencies: list[tuple[float, str]] = []  # (seconds, request kind)

    def round(self, run: Run) -> None:
        from ncvsynth import analysis, io, model, search, verify

        costs = {}
        for i, req in enumerate(self.requests):
            metric, topology = model.METRICS[req.metric], model.TOPOLOGIES[req.topology]

            def work():
                cost, circuit = search.synthesize_one(req.func, metric, topology)
                return (cost, circuit, verify.check_realizes(circuit, req.func),
                        io.format_circuit(circuit))

            def check(out):
                cost, circuit, certified, text = out
                name = f"request {ref.format_function(req.func)} {req.metric}/{req.topology}"
                gates = ref.program_gates(circuit)
                weights = ref.METRIC_WEIGHTS[req.metric]
                failures = [] if certified else [f"{name}: check_realizes rejected the circuit"]
                failures += ref.check_circuits(name, [(req.func, cost, gates)], weights)
                if req.bound is not None and cost > req.bound:
                    failures.append(f"{name}: cost {cost} exceeds the drawn circuit's {req.bound}")
                if req.published is not None and cost != req.published:
                    failures.append(f"{name}: cost {cost} is not the published {req.published}")
                if ref.parse_circuit_text(text) != gates:
                    failures.append(f"{name}: circuit text does not parse back")
                failures += ref.check_oracle(name, {req.func: cost}, self._oracle(metric, topology),
                                             ORACLE_REACH[req.metric])
                for perm in self.symmetries[req.topology]:
                    expected = tuple(ref.relabel_functions(np.array([req.func]), perm)[0].tolist())
                    if model.relabel_function(req.func, perm) != expected:
                        failures.append(f"{name}: relabel_function disagrees under {perm}")
                    moved = ref.program_gates(model.relabel_circuit(circuit, perm, topology))
                    failures += ref.check_circuits(f"{name} relabeled by {perm}",
                                                   [(expected, cost, moved)], weights)
                costs[i] = cost
                return failures

            run.op("request", work, check)
            self.latencies.append((run.ops[-1].ref_seconds, req.kind))

        def make_up():
            return analysis.CostHistogram.from_costs(costs, expect_total=None)

        run.op("cost-make-up", make_up,
               lambda hist: ref.check_histogram("cost make-up", hist.counts, _histogram(costs)))

    def _oracle(self, metric, topology):
        key = (metric.slug, topology.slug)
        if key not in self.oracles:
            self.oracles[key] = self.nv.exhaustive_oracle(metric, topology, ORACLE_REACH[metric.slug])
        return self.oracles[key]

    def summarize(self, run: Run) -> None:
        latencies = [s for s, _ in self.latencies]
        run.sample("synth_one_p50_ms", statistics.median(latencies) * 1e3, "ms")
        run.sample("synth_one_p90_ms", statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms")
        run.sample("synth_one_requests", len(latencies), "count")


WORKLOADS = {w.name: w for w in (Tables, CliSession, SynthOne)}
