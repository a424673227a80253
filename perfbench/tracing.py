"""In-memory spans around the program's public functions.

The benchmark never edits the program.  A traced run replaces module
attributes with thin wrappers that record one span per call (name, label,
parent, start, end) and puts the originals back afterwards.  ``cli``, ``nct``
and ``analysis`` import some functions by name, so those names are wrapped
in the importing module too; otherwise calls made from inside the program
would escape the trace.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, rescale) -> None:
        #: maps a span's (start, end) to its duration at reference speed
        self._rescale = rescale
        # span id -> [parent id, name, label, start, end]
        self.spans: list[list] = []
        # (span id that was open, counter name, amount)
        self.counts: list[tuple[int, str, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, label: str) -> int:
        sid = len(self.spans)
        self.spans.append([self._stack[-1] if self._stack else -1, name, label, perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, label: str = ""):
        sid = self._open(name, label)
        try:
            yield
        finally:
            self._close(sid)

    def count(self, name: str, amount: int) -> None:
        self.counts.append((self._stack[-1] if self._stack else -1, name, amount))

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, label=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``label`` maps the call's bound arguments to a short string.
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        sig = inspect.signature(fn) if label else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            text = ""
            if label is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                text = label(bound.arguments)
            sid = tracer._open(name, text)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        self._patched.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def after_init(self, cls, hook) -> None:
        """Call ``hook(tracer, obj)`` after each ``cls.__init__(obj, ...)``."""
        raw = inspect.getattr_static(cls, "__init__")

        @functools.wraps(raw)
        def wrapper(obj, *args, **kwargs):
            raw(obj, *args, **kwargs)
            hook(self, obj)

        self._patched.append((cls, "__init__", raw))
        cls.__init__ = wrapper

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def duration(self, sid: int) -> float:
        _, _, _, start, end = self.spans[sid]
        return self._rescale(start, end)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [self.duration(sid) for sid in range(len(self.spans))]
        for sid, span in enumerate(self.spans):
            if span[0] >= 0:
                own[span[0]] -= self.duration(sid)
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,label,start,end\n")
            for sid, (parent, name, label, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{label},{start:.9f},{end:.9f}\n")
            for sid, name, amount in self.counts:
                fh.write(f"count,{sid},{name},,{amount},\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions through which the benchmark and ``cli`` reach
    each layer."""
    from ncvsynth import analysis, cli, io, model, nct, search, verify

    def table_label(a):
        if a["library"] == "NCT":
            return a["mode"]
        return f"{a['metric'].slug}/{a['topology'].slug}"

    def nct_label(a):
        return a["mode"] + (f":{a['metric'].slug}" if a["metric"] is not None else "")

    def one_label(a):
        return f"{a['metric'].slug}/{a['topology'].slug}"

    # search: the engine, reached directly, from nct and from cli
    tracer.wrap(search, "settle_all", "search.settle_all", table_label)
    tracer.wrap(nct, "settle_all", "search.settle_all", table_label)
    tracer.wrap(search, "synthesize_one", "search.synthesize_one", one_label)
    tracer.wrap(search.SynthesisTable, "witness", "search.witness")
    tracer.after_init(
        search.SynthesisTable,
        lambda t, table: t.count("search.states_visited", table.states_visited),
    )
    # nct, reached directly, from cli and from analysis
    tracer.wrap(nct, "settle_all_nct", "nct.settle_all_nct", nct_label)
    tracer.wrap(analysis, "settle_all_nct", "nct.settle_all_nct", nct_label)
    # analysis
    tracer.wrap(analysis, "histogram", "analysis.histogram")
    tracer.wrap(analysis.CostHistogram, "from_costs", "analysis.from_costs")
    tracer.wrap(analysis, "compare", "analysis.compare")
    # verify, reached directly and from cli
    tracer.wrap(verify, "verify_witnesses", "verify.verify_witnesses")
    tracer.wrap(verify, "check_realizes", "verify.check_realizes")
    tracer.wrap(cli, "check_realizes", "verify.check_realizes")
    tracer.wrap(cli, "first_mismatch", "verify.first_mismatch")
    # io
    for attr in ("write_table_csv", "write_table_jsonl", "read_table_csv",
                 "write_comparison_csv", "format_circuit", "histogram_text",
                 "comparison_text"):
        tracer.wrap(io, attr, f"io.{attr}")
    # model: only the name the benchmark calls, never the engine's own copy
    tracer.wrap(model, "relabel_function", "model.relabel_function")
    # cli
    tracer.wrap(cli, "main", "cli.main", lambda a: (a["argv"] or ["?"])[0])
