"""Command line interface: synth, synth-all, compare, verify, stats.

Completed NCV cost tables are cached as CSV under ``./.ncv-cache`` (one file
per metric/topology slug) so repeated invocations reuse them; pass
``--no-cache`` to recompute.  NCT tables settle in a fraction of a second
and are never cached.

Exit codes: 0 success, 1 verification failure, 2 argument/parse errors,
3 invalid function, 4 budget exceeded, 5 I/O failure, 6 internal error (a
failed internal consistency check: a bug in ncvsynth, not in the input).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, io, nct, search
from .errors import (
    BudgetExceeded,
    CircuitParseError,
    InternalError,
    InvalidFunction,
    NcvSynthError,
)
from .model import CostMetric, FULL_TOPOLOGY, TOPOLOGIES, Topology
from .verify import check_realizes, first_mismatch

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_FUNCTION = 3
EXIT_BUDGET = 4
EXIT_IO = 5
EXIT_INTERNAL = 6

DEFAULT_CACHE_DIR = Path(".ncv-cache")


@dataclass
class RunConfig:
    """One invocation's worth of settings, decoded from argv."""

    command: str
    metric: CostMetric | None = None
    topology: Topology = FULL_TOPOLOGY
    function_text: str | None = None
    circuit_path: Path | None = None
    out_path: Path | None = None
    circuits_path: Path | None = None
    table_path: Path | None = None
    tol: float = 1e-9
    cache_dir: Path = DEFAULT_CACHE_DIR
    use_cache: bool = True
    options: search.SearchOptions = field(default_factory=search.SearchOptions)
    seed: int | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncvsynth",
        description="Cost-optimal 3-line reversible circuit synthesis",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized subroutines (printed when used)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_args(p, function_required=False):
        p.add_argument("--metric", default="ncv-111",
                       help="ncv-111 | ncv-012 | ncv-155 | custom:x,y,z")
        p.add_argument("--topology", default="full", choices=sorted(TOPOLOGIES))
        if function_required:
            p.add_argument("--function", required=True,
                           help="8 comma-separated outputs, e.g. 0,1,2,3,4,5,7,6")
        p.add_argument("--no-prune-repeat", action="store_true",
                       help="disable the repeated-placement reduction")
        p.add_argument("--no-prune-relabel", action="store_true",
                       help="search every state, not one per symmetry orbit")
        p.add_argument("--max-cost", type=int, default=None,
                       help="exit 4 once the search passes this primary cost")
        p.add_argument("--max-states", type=int, default=None,
                       help="exit 4 once the search settles more states than this "
                            "(orbit representatives unless --no-prune-relabel)")

    p = sub.add_parser("synth", help="synthesize one function")
    add_search_args(p, function_required=True)

    p = sub.add_parser("synth-all", help="settle the whole 40,320-function table")
    add_search_args(p)
    p.add_argument("--out", type=Path, default=None, help="write table CSV here")
    p.add_argument("--circuits", type=Path, default=None,
                   help="also write witness circuits as JSONL")
    p.add_argument("--cache-dir", type=Path, default=DEFAULT_CACHE_DIR)
    p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("compare", help="optimal NCT vs optimal NCV costs")
    p.add_argument("--metric", default="ncv-111")
    p.add_argument("--out", type=Path, default=None, help="write comparison CSV here")
    p.add_argument("--cache-dir", type=Path, default=DEFAULT_CACHE_DIR)
    p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("verify", help="check a circuit file against a function")
    p.add_argument("--circuit", type=Path, required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("stats", help="histogram and weighted average of a table CSV")
    p.add_argument("table", type=Path)
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command, seed=args.seed)
    if args.command in ("synth", "synth-all", "compare"):
        config.metric = CostMetric.parse(args.metric)
    if args.command in ("synth", "synth-all"):
        config.topology = TOPOLOGIES[args.topology]
        config.options = search.SearchOptions(
            no_repeat_placement=not args.no_prune_repeat,
            settle_relabelings=not args.no_prune_relabel,
            max_cost=args.max_cost,
            max_states=args.max_states,
        )
    if args.command == "synth":
        config.function_text = args.function
    if args.command == "synth-all":
        config.out_path = args.out
        config.circuits_path = args.circuits
    if args.command == "compare":
        config.out_path = args.out
    if args.command in ("synth-all", "compare"):
        config.cache_dir = args.cache_dir
        config.use_cache = not args.no_cache
    if args.command == "verify":
        config.circuit_path = args.circuit
        config.function_text = args.function
        config.tol = args.tol
    if args.command == "stats":
        config.table_path = args.table
    return config


# --------------------------------------------------------------------------
# Table cache

def cached_ncv_table(
    metric: CostMetric,
    topology: Topology,
    cache_dir: Path,
    use_cache: bool,
    options: search.SearchOptions | None = None,
    need_witnesses: bool = False,
):
    """Return (costs, table or None), reusing the CSV cache when allowed.

    A cached CSV serves cost-only consumers; witness consumers always
    rebuild (witnesses are deterministic, so cache and recomputation agree).
    """
    csv_path = cache_dir / f"{metric.slug}_{topology.slug}.csv"
    if use_cache and not need_witnesses and csv_path.is_file():
        with csv_path.open("r", newline="") as fh:
            costs = io.read_table_csv(fh)
        if len(costs) == search.N_FUNCTIONS:
            return costs, None
    table = search.settle_all(metric, topology, options)
    if use_cache:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        with csv_path.open("w", newline="") as fh:
            io.write_table_csv(table.costs, fh)
    return table.costs, table


# --------------------------------------------------------------------------
# Commands

def cmd_synth(config: RunConfig) -> int:
    func = io.parse_function(config.function_text)
    cost, circuit = search.synthesize_one(
        func, config.metric, config.topology, config.options
    )
    print(f"function: {io.format_function(func)}")
    print(f"metric: {config.metric.slug}  topology: {config.topology.slug}")
    print(f"optimal cost: {cost}")
    sys.stdout.write(io.format_circuit(circuit))
    return EXIT_OK


def cmd_synth_all(config: RunConfig) -> int:
    need_witnesses = config.circuits_path is not None
    costs, table = cached_ncv_table(
        config.metric, config.topology, config.cache_dir, config.use_cache,
        config.options, need_witnesses,
    )
    hist = analysis.CostHistogram.from_costs(costs)
    print(f"metric: {config.metric.slug}  topology: {config.topology.slug}")
    sys.stdout.write(io.histogram_text(hist))
    if config.out_path is not None:
        with config.out_path.open("w", newline="") as fh:
            io.write_table_csv(costs, fh)
        print(f"table written to {config.out_path}")
    if config.circuits_path is not None:
        with config.circuits_path.open("w") as fh:
            io.write_table_jsonl(table, fh)
        print(f"witness circuits written to {config.circuits_path}")
    return EXIT_OK


def cmd_compare(config: RunConfig) -> int:
    nct_table = nct.settle_all_nct()
    ncv_costs, ncv_table = cached_ncv_table(
        config.metric, FULL_TOPOLOGY, config.cache_dir, config.use_cache
    )
    if ncv_table is None:
        ncv_table = search.SynthesisTable.from_costs(ncv_costs, config.metric)
    report = analysis.compare(nct_table, ncv_table, config.metric)
    sys.stdout.write(io.comparison_text(report))
    for line in report.summary_lines():
        print(line)
    if config.out_path is not None:
        with config.out_path.open("w", newline="") as fh:
            io.write_comparison_csv(report, fh)
        print(f"comparison written to {config.out_path}")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    try:
        text = config.circuit_path.read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    circuit = io.parse_circuit(text)
    func = io.parse_function(config.function_text)
    if check_realizes(circuit, func, config.tol):
        print(f"ok: circuit realizes {io.format_function(func)} (tol {config.tol:g})")
        return EXIT_OK
    row, col, got, expected = first_mismatch(circuit, func, config.tol)
    print(
        f"FAIL: unitary entry ({row},{col}) is {got:.6g}, expected {expected:.6g}",
        file=sys.stderr,
    )
    return EXIT_FAIL


def cmd_stats(config: RunConfig) -> int:
    try:
        with config.table_path.open("r", newline="") as fh:
            costs = io.read_table_csv(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    hist = analysis.CostHistogram.from_costs(costs, expect_total=None)
    sys.stdout.write(io.histogram_text(hist))
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "synth-all": cmd_synth_all,
    "compare": cmd_compare,
    "verify": cmd_verify,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        config = _config_from(args)
        if config.seed is not None:
            print(f"seed: {config.seed}")
            np.random.seed(config.seed)
        return _COMMANDS[config.command](config)
    except InvalidFunction as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FUNCTION
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CircuitParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NcvSynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
