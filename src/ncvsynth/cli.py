"""Command line interface: synth, synth-all, compare, verify, stats.

Every complete table a command needs is cached under ``./.ncv-cache``,
one ``.npz`` per table: ``<metric>_<topology>.npz`` for an NCV table, and
for ``compare`` also ``nct-gate-count_full.npz`` (shared by every metric);
a warm ``compare`` reads those two files and settles no table.  A file
holds the table's rank arrays (cost, secondary cost, witness gate ids and
lengths) and a spec string: the library, every gate's weight pair, the
topology's line pairs, both reduction flags and the cache format version.
A file that cannot be read whole, whose spec differs from the run's, whose
arrays are not of the dtypes it was written with, or whose costs are not
the summed weights of its witnesses, is a miss: the table is settled again
and the file rewritten.  Pass ``--no-cache`` to neither read nor write it.
A run with ``--max-cost`` or ``--max-states`` reads no cache file (it may
write one), so its budget acts alike cold and warm.

Exit codes: 0 success, 1 verification failure (and any other ncvsynth
error), 2 argument/parse errors, 3 invalid function, 4 budget exceeded, 5
I/O failure, 6 internal error: a failed internal consistency check, or any
other exception, printed as ``error: internal error: <TypeName>: <message>``.
Exit 6 is a bug in ncvsynth, not in the input; no command ends in a
traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import zipfile
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
from .model import (CostMetric, FULL_TOPOLOGY, GATE_CODES, GATES, Gate, TOPOLOGIES, Topology,
                    enumerate_gates, parse_decimal, parse_int)
from .verify import check_realizes, first_mismatch

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_FUNCTION = 3
EXIT_BUDGET = 4
EXIT_IO = 5
EXIT_INTERNAL = 6

DEFAULT_CACHE_DIR = Path(".ncv-cache")


def _ceiling(text: str) -> int:
    """The value of ``--max-cost`` or ``--max-states``: an integer >= 0."""
    try:
        value = parse_int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


def _tolerance(text: str) -> float:
    """The value of ``--tol``: a finite decimal number >= 0 (nan would
    accept no circuit and inf every one)."""
    try:
        value = parse_decimal(text)
        if 0 <= value < np.inf:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite decimal number >= 0, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncvsynth",
        description="Cost-optimal 3-line reversible circuit synthesis",
    )
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
        p.add_argument("--max-cost", type=_ceiling, default=None,
                       help="exit 4 once the search passes this primary cost")
        p.add_argument("--max-states", type=_ceiling, default=None,
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
    p.add_argument("--tol", type=_tolerance, default=1e-9,
                   help="largest entrywise unitary error accepted (finite, >= 0)")

    p = sub.add_parser("stats", help="histogram and weighted average of a table CSV")
    p.add_argument("table", type=Path)
    return parser


def _search_options(args: argparse.Namespace) -> search.SearchOptions:
    return search.SearchOptions(
        no_repeat_placement=not args.no_prune_repeat,
        settle_relabelings=not args.no_prune_relabel,
        max_cost=args.max_cost,
        max_states=args.max_states,
    )


# --------------------------------------------------------------------------
# Table cache

#: 3 since gate ids are ``Circuit`` codes: a format-2 file holds positions in
#: the gate list, which in a path table are codes of other gates.
CACHE_FORMAT = 3


def _table_kind(
    metric: CostMetric | None, topology: Topology
) -> tuple[str, tuple[Gate, ...], list[search.Cost], str]:
    """The library, gate list, per-gate (primary, secondary) weights and mode
    of the NCV table of ``metric``, or with ``metric`` None of the NCT
    gate-count table."""
    if metric is not None:
        gates = enumerate_gates(topology, "NCV")
        return "NCV", gates, [(metric.weight(g), 0) for g in gates], "metric"
    gates = enumerate_gates(topology, "NCT")
    return "NCT", gates, nct.nct_weights(nct.GATE_COUNT, None, gates), nct.GATE_COUNT


def cache_entry(
    cache_dir: Path,
    metric: CostMetric | None,
    topology: Topology,
    options: search.SearchOptions,
) -> tuple[Path, str]:
    """The cache file of a table (see ``_table_kind``) and the spec it must
    hold: everything the table's costs and witnesses depend on.  The NCT
    gate-count table's weights do not depend on a metric, so one file
    serves every metric."""
    library, gates, weights, mode = _table_kind(metric, topology)
    spec = json.dumps({
        "format": CACHE_FORMAT,
        "library": library,
        "weights": [[str(g), *w] for g, w in zip(gates, weights)],
        "topology": sorted(topology.pairs),
        "no_repeat_placement": options.no_repeat_placement,
        "settle_relabelings": options.settle_relabelings,
    })
    name = metric.slug if metric is not None else f"nct-{mode}"
    return cache_dir / f"{name}_{topology.slug}.npz", spec


#: The dtype of each array of a cache file, as ``write_cached_table`` stores it.
_CACHED_DTYPES = {"cost": np.int64, "secondary": np.int64, "gate_ids": np.uint8,
                  "lengths": np.int32}


def read_cached_table(
    path: Path,
    spec: str,
    metric: CostMetric | None,
    topology: Topology,
) -> search.SynthesisTable | None:
    """The table stored at ``path``, or None if the file is missing, cannot
    be read whole, holds another spec, holds an array of another dtype than
    ``write_cached_table`` stores, holds arrays that are not a table
    (``SynthesisTable`` raises ValueError), or holds a cost or secondary
    cost other than the summed weights of its row's witness.  Every
    member's CRC is checked first: a flipped bit in an array header could
    otherwise shrink the array so that reading it stops short of the
    check."""
    library, gates, weights, mode = _table_kind(metric, topology)
    try:
        with np.load(path, allow_pickle=False) as data:
            if data.zip.testzip() is not None:
                return None
            arrays = {name: data[name] for name in data.files}
        if str(arrays["spec"]) != spec or any(
            arrays[name].dtype != dtype for name, dtype in _CACHED_DTYPES.items()
        ):
            return None
        paths = search.WitnessPaths(*(arrays[name] for name in ("cost", "gate_ids", "lengths")))
        table = search.SynthesisTable(
            metric, topology, library, gates, paths, arrays["secondary"], mode=mode
        )
    # RuntimeError: a flipped flag or compression method in the zip directory
    except (OSError, EOFError, RuntimeError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    # Column i of the transposed ids is row i's witness (summed down the
    # columns, twice as fast as along the rows); the padding id, like every
    # code off the gate list, indexes a weight 0.
    ids = np.ascontiguousarray(paths.gate_ids.T)
    pairs = np.zeros((len(GATES) + 1, 2), dtype=np.int64)
    pairs[[GATE_CODES[g] for g in gates]] = weights
    for column, costs in enumerate((paths.cost, table.secondary_array())):
        if not np.array_equal(pairs[:, column].take(ids).sum(axis=0), costs):
            return None
    return table


def write_cached_table(path: Path, spec: str, table: search.SynthesisTable) -> None:
    """Store a table's arrays at ``path``: written to a temporary
    file in the same directory, then moved over ``path`` in one step."""
    paths = table.witness_paths()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh, spec=np.array(spec), cost=paths.cost,
                secondary=table.secondary_array(), gate_ids=paths.gate_ids,
                lengths=paths.lengths,
            )
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def cached_table(
    metric: CostMetric | None,
    topology: Topology,
    cache_dir: Path,
    use_cache: bool,
    options: search.SearchOptions | None = None,
) -> search.SynthesisTable:
    """The NCV table of ``metric``, or with ``metric`` None the NCT
    gate-count table: read from the cache when its file holds this run's
    spec, else settled (and, with ``use_cache``, written there).  A run
    with a budget (``max_cost`` or ``max_states``) reads no cache file, so
    that the budget acts alike cold and warm; a table it settles completely
    is still written."""
    options = options or search.SearchOptions()
    path, spec = cache_entry(cache_dir, metric, topology, options)
    if use_cache and options.max_cost is None and options.max_states is None:
        table = read_cached_table(path, spec, metric, topology)
        if table is not None:
            return table
    if metric is not None:
        table = search.settle_all(metric, topology, options)
    else:
        table = nct.settle_all_nct(nct.GATE_COUNT, None, options, topology)
    if use_cache:
        write_cached_table(path, spec, table)
    return table


# --------------------------------------------------------------------------
# Commands

def cmd_synth(args: argparse.Namespace) -> int:
    metric = CostMetric.parse(args.metric)
    topology = TOPOLOGIES[args.topology]
    options = _search_options(args)
    func = io.parse_function(args.function)
    cost, circuit = search.synthesize_one(func, metric, topology, options)
    print(f"function: {io.format_function(func)}")
    print(f"metric: {metric.slug}  topology: {topology.slug}")
    print(f"optimal cost: {cost}")
    sys.stdout.write(io.format_circuit(circuit))
    return EXIT_OK


def cmd_synth_all(args: argparse.Namespace) -> int:
    metric = CostMetric.parse(args.metric)
    topology = TOPOLOGIES[args.topology]
    table = cached_table(
        metric, topology, args.cache_dir, not args.no_cache, _search_options(args)
    )
    print(f"metric: {metric.slug}  topology: {topology.slug}")
    sys.stdout.write(io.histogram_text(analysis.histogram(table)))
    if args.out is not None:
        with args.out.open("w", newline="") as fh:
            io.write_table_csv(table.costs, fh)
        print(f"table written to {args.out}")
    if args.circuits is not None:
        with args.circuits.open("w") as fh:
            io.write_table_jsonl(table, fh)
        print(f"witness circuits written to {args.circuits}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    metric = CostMetric.parse(args.metric)

    def table(table_metric):
        return cached_table(table_metric, FULL_TOPOLOGY, args.cache_dir, not args.no_cache)

    report = analysis.compare(table(None), table(metric), metric)
    sys.stdout.write(io.comparison_text(report))
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        with args.out.open("w", newline="") as fh:
            io.write_comparison_csv(report, fh)
        print(f"comparison written to {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    circuit = io.parse_circuit(args.circuit.read_text())
    func = io.parse_function(args.function)
    if check_realizes(circuit, func, args.tol):
        print(f"ok: circuit realizes {io.format_function(func)} (tol {args.tol:g})")
        return EXIT_OK
    row, col, got, expected = first_mismatch(circuit, func, args.tol)
    print(
        f"FAIL: unitary entry ({row},{col}) is {got:.6g}, expected {expected:.6g}",
        file=sys.stderr,
    )
    return EXIT_FAIL


def cmd_stats(args: argparse.Namespace) -> int:
    with args.table.open("r", newline="") as fh:
        _, costs = io.read_table_csv(fh)
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


#: Each error type's exit code; the first entry that matches an error wins.
_EXIT_CODES = (
    (InvalidFunction, EXIT_BAD_FUNCTION),
    (BudgetExceeded, EXIT_BUDGET),
    ((CircuitParseError, ValueError), EXIT_USAGE),
    (OSError, EXIT_IO),
    (InternalError, EXIT_INTERNAL),
    (NcvSynthError, EXIT_FAIL),
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
