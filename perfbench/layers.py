"""Per-layer metrics read from a traced run's spans.

``breakdown`` returns two sets.  The generic set has the same names on every
workload (the per-layer metrics of ``BENCHMARK.json``); each is a per-round
figure taken only from spans inside timed operations, except the per-call
``model.relabel_function_us``, which the checks time.  The detail set splits
the same spans by table, command or request class, under the names the
README maps to the end-to-end metrics they should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

SEARCHES = ("search.settle_all", "search.synthesize_one")


def _op_of(tracer) -> list:
    """Label of the timed operation each span runs in, or None."""
    out = []
    for parent, name, label, _, _ in tracer.spans:
        if name == "op":
            out.append(label)
        else:
            out.append(out[parent] if parent >= 0 else None)
    return out


def breakdown(tracer, run, workload):
    spans = tracer.spans
    own = tracer.self_times()
    dur = [tracer.duration(sid) for sid in range(len(spans))]
    op_of = _op_of(tracer)
    rounds = len(run.rounds)
    timed = [sid for sid, op in enumerate(op_of) if op is not None and spans[sid][1] != "op"]

    def total(values) -> float:
        return sum(values) / rounds

    layer_self = defaultdict(float)
    for sid in timed:
        layer_self[spans[sid][1].split(".")[0]] += own[sid]
    states = [(sid, n) for sid, name, n in tracer.counts
              if name == "search.states_visited" and sid >= 0 and op_of[sid] is not None]
    relabel = [dur[s] for s, span in enumerate(spans) if span[1] == "model.relabel_function"]

    generic = {
        "search.engine_s": (total(own[s] for s in timed if spans[s][1] in SEARCHES), "s"),
        "search.witness_s": (total(dur[s] for s in timed if spans[s][1] == "search.witness"), "s"),
        "search.states_visited": (round(total(n for _, n in states)), "count"),
        "search.searches": (round(total(1 for s in timed if spans[s][1] in SEARCHES)), "count"),
        "verify_s": (layer_self["verify"] / rounds, "s"),
        "analysis_s": (layer_self["analysis"] / rounds, "s"),
        "io_s": (layer_self["io"] / rounds, "s"),
        "io.table_reads": (
            round(total(1 for s in timed if spans[s][1] == "io.read_table_csv")), "count"),
        "model.relabel_function_us": (statistics.fmean(relabel) * 1e6 if relabel else 0.0, "us"),
    }

    def where(name, op=None, label=None):
        return [s for s in timed if spans[s][1] == name
                and (op is None or op_of[s] == op) and (label is None or spans[s][2] == label)]

    detail = {f"layer_self_s.{layer}": (t / rounds, "s") for layer, t in layer_self.items()}
    if workload.name == "tables":
        for key, op in (("full", "table-full"), ("path", "table-path"), ("nct", "table-nct")):
            detail[f"search.witness_s.{key}"] = (total(dur[s] for s in where("search.witness", op)), "s")
            detail[f"search.states_visited.{key}"] = (
                round(total(n for s, n in states if op_of[s] == op)), "count")
            detail[f"verify.verify_witnesses_s.{key}"] = (
                total(dur[s] for s in where("verify.verify_witnesses", op)), "s")
            detail[f"analysis.histogram_s.{key}"] = (
                total(dur[s] for s in where("analysis.histogram", op)), "s")
            detail[f"io.write_table_csv_s.{key}"] = (
                total(dur[s] for s in where("io.write_table_csv", op)), "s")
        for key, label in (("full", "ncv-111/full"), ("path", "ncv-111/path")):
            detail[f"search.settle_all_s.{key}"] = (
                total(dur[s] for s in where("search.settle_all", label=label)), "s")
        detail["nct.settle_all_nct_s.gate-count"] = (
            total(dur[s] for s in where("nct.settle_all_nct", "table-nct")), "s")
        detail["nct.settle_all_nct_s.lex-max-wide"] = (
            total(dur[s] for s in where("nct.settle_all_nct", "lex-max-wide")), "s")
    elif workload.name == "cli-session":
        detail["search.settle_all_s.ncv-012"] = (
            total(dur[s] for s in where("search.settle_all", label="ncv-012/full")), "s")
        detail["search.states_visited.ncv-012"] = (
            round(total(n for s, n in states if spans[s][2] == "ncv-012/full")), "count")
        for mode in ("gate-count", "lex-min", "lex-max"):
            detail[f"nct.settle_all_nct_s.{mode}"] = (total(
                dur[s] for s in timed
                if spans[s][1] == "nct.settle_all_nct" and spans[s][2].split(":")[0] == mode), "s")
        for name, op, key in (
            ("io.write_table_csv", "synth-all", "synth_all"),
            ("io.write_table_jsonl", "synth-all", "synth_all"),
            ("io.read_table_csv", "compare-warm", "warm"),
            ("io.write_comparison_csv", "compare-cold", "cold"),
            ("io.write_comparison_csv", "compare-warm", "warm"),
            ("analysis.compare", "compare-cold", "cold"),
            ("analysis.compare", "compare-warm", "warm"),
        ):
            detail[f"{name}_s.{key}"] = (total(dur[s] for s in where(name, op)), "s")
        searches = [s for s in timed if op_of[s] == "compare-warm" and (
            spans[s][1] == "nct.settle_all_nct"
            or (spans[s][1] == "search.settle_all"
                and spans[spans[s][0]][1] != "nct.settle_all_nct"))]
        detail["cli.table_searches.compare_warm"] = (round(total(1 for _ in searches)), "count")
        detail["cli.cache_reads.compare_warm"] = (
            round(total(1 for _ in where("io.read_table_csv", "compare-warm"))), "count")
    elif workload.name == "synth-one":
        calls = [dur[s] for s in timed if spans[s][1] == "search.synthesize_one"]
        kinds = [kind for _, kind in workload.latencies]
        for kind in ("shallow", "deep"):
            picked = [d for d, k in zip(calls, kinds) if k == kind]
            if picked:
                detail[f"search.synthesize_one_p50_ms.{kind}"] = (
                    statistics.median(picked) * 1e3, "ms")
    if relabel:
        detail["model.relabel_function_us"] = generic["model.relabel_function_us"]
    return generic, detail
