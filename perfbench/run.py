#!/usr/bin/env python3
"""Benchmark of ncvsynth, run from the root of a source checkout.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run prepares its inputs from ``--seed``, repeats whole rounds of the
workload's operations until ``--seconds`` have passed (at least one round),
checks every output against program-independent references, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run wraps the program's public functions in spans and the
metrics are the per-layer ones.  Times on the result line are rescaled to the
reference speed of ``hostspeed``, whose probe samples the host's speed all
through the run.  Lines before the result give the same run in detail:
metadata, the round's wall time, the workload's own named metrics, and every
failure.

``--workload all`` runs each workload untraced and then traced, each in its
own process, and also reports the tracing overhead.

The program is imported from ``src/`` next to this directory and is never
modified; a checkout without it makes the benchmark exit with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-out"
SETUP_REPEATS = 11


def import_program():
    init = SRC / "ncvsynth" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: no program source at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ncvsynth
    import ncvsynth.cli  # noqa: F401  (loads every module before any timing)

    if Path(ncvsynth.__file__).resolve() != init.resolve():
        print(f"perfbench: imported {ncvsynth.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)
    return ncvsynth


def import_seconds(probe) -> float:
    """Time one fresh execution of all ncvsynth modules at reference speed,
    then put the loaded ones back.  Their dependencies (numpy, the standard
    library) stay loaded, so the figure is the program's own import work."""
    def ours(name):
        return name.partition(".")[0] == "ncvsynth"

    loaded = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in loaded:
        del sys.modules[name]
    _, seconds = probe.timed(lambda: importlib.import_module("ncvsynth.cli"))
    for name in [name for name in sys.modules if ours(name)]:
        del sys.modules[name]
    sys.modules.update(loaded)
    return seconds


class ImportSampler:
    """Import timings, spread over the first round.

    Taken between operations rather than all before the first one, their
    median sees the same machine conditions as the round it goes with.
    """

    def __init__(self, ops_per_round: int, probe) -> None:
        self.probe = probe
        slots = ops_per_round + 1
        self.plan = [round(SETUP_REPEATS * (s + 1) / slots) for s in range(slots)]
        self.times: list[float] = []

    def __call__(self, slot: int) -> None:
        """Top up the samples due once ``slot`` operations have run."""
        goal = self.plan[min(slot, len(self.plan) - 1)]
        while len(self.times) < goal:
            self.times.append(import_seconds(self.probe))


def prepare(workload_cls, nv, seed, probe):
    """The workload, and the median time of preparing its inputs at
    reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload, seconds = probe.timed(lambda: workload_cls(nv, seed))
        times.append(seconds)
    return workload, statistics.median(times)


def metadata(nv, args) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, timeout=30)
        commit = out.stdout.strip() or commit
    digest = hashlib.sha1()
    for path in sorted((SRC / "ncvsynth").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha1": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "ncvsynth": nv.__version__,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_workload(args) -> int:
    nv = import_program()
    import hostspeed
    import layers
    import tracing
    from workloads import WORKLOADS, Run

    meta = metadata(nv, args)
    probe = hostspeed.Probe()
    workload, prep_s = prepare(WORKLOADS[args.workload], nv, args.seed, probe)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(probe.rescale) if args.trace else None
    run = Run(args.seed, workdir, probe, tracer)
    imports = ImportSampler(workload.ops_per_round, probe)
    if not args.trace:
        imports(0)
        run.after_op = lambda: imports(len(run.ops))
    if tracer:
        tracing.install(tracer)
    probe.start()
    try:
        start = perf_counter()
        while True:
            run.rounds.append([])
            workload.round(run)
            if perf_counter() - start >= args.seconds:
                break
    finally:
        probe.stop()
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    workload.summarize(run)
    round_s = statistics.median(sum(op.ref_seconds for op in r) for r in run.rounds)
    round_wall_s = statistics.median(sum(op.seconds for op in r) for r in run.rounds)
    speed = statistics.fmean(probe.durations) / hostspeed.REF_PROBE_S

    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# rounds {len(run.rounds)}")
    print(f"# metric round_wall_s {_fmt(round_wall_s)} s (wall time, not rescaled)")
    print(f"# probe samples={len(probe.durations)} mean_over_ref={speed:.4f}")
    for name, (values, unit) in sorted(run.samples.items()):
        print(f"# metric {name} {_fmt(statistics.median(values))} {unit} (n={len(values)})")
    by_name: dict[str, list] = {}
    for op in run.ops:
        by_name.setdefault(op.name, []).append(op)
    for name, ops in by_name.items():
        failed = sum(op.failed for op in ops)
        print(f"# ops {name} attempted={len(ops)} failed={failed}")
    for op in run.ops:
        for failure in op.failures:
            kind = "known fault" if not op.unexpected else "FAILURE"
            print(f"# {kind}: {failure}")

    if tracer:
        generic, detail = layers.breakdown(tracer, run, workload)
        generic["traced_round_s"] = (round_s, "s")
        for name, (value, unit) in sorted(detail.items()):
            print(f"# layer {name} {_fmt(value)} {unit}")
        TRACES.mkdir(exist_ok=True)
        trace_path = TRACES / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.dump(trace_path)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
        metrics = generic
    else:
        metrics = {
            "round_s": (round_s, "s"),
            "setup_s": (statistics.median(imports.times) + prep_s, "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }
    result = {
        "correct": not any(op.unexpected for op in run.ops),
        "attempted": len(run.ops),
        "failed": sum(op.failed for op in run.ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    import_program()
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            lines = out.stdout.splitlines()
            print(f"## {name} trace={trace}")
            print("\n".join(lines[:-1]))
            results[trace] = json.loads(lines[-1])
        untraced, traced = results[0], results[1]
        overhead = (traced["metrics"]["traced_round_s"]["value"]
                    - untraced["metrics"]["round_s"]["value"])
        print(f"## {name} attempted={untraced['attempted']} failed={untraced['failed']} "
              f"correct={untraced['correct']} tracing_overhead_s={overhead:.4f}")
        for key, metric in {**untraced["metrics"], **traced["metrics"]}.items():
            print(f"{name:12s} {key:32s} {_fmt(metric['value']):>14s} {metric['unit']}")
        summary["correct"] &= untraced["correct"] and traced["correct"]
        summary["attempted"] += untraced["attempted"]
        summary["failed"] += untraced["failed"]
        summary["metrics"].update(
            {f"{name}.{k}": v for k, v in untraced["metrics"].items()})
        summary["metrics"][f"{name}.tracing_overhead_s"] = {"value": overhead, "unit": "s"}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["tables", "cli-session", "synth-one", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
