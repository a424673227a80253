"""The benchmark's traced mode (``perfbench/tracing.py``) replaces program
attributes that it looks up by name: each must exist, and ``restore`` must
put every original back."""

import importlib
import inspect
from pathlib import Path

from ncvsynth import analysis, cli, io, model, nct, search, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracing_install_finds_its_attributes_and_restore_puts_them_back(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    owners = (analysis, cli, io, model, nct, search, verify,
              analysis.CostHistogram, search.SynthesisTable)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer(lambda start, end: end - start)
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, raw in patched:
            assert inspect.getattr_static(owner, attr) is not raw, attr
    finally:
        tracer.restore()
    for owner, attrs in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == attrs.keys()
        assert all(now[name] is value for name, value in attrs.items()), owner
    assert {owner for owner, _, _ in patched} <= set(owners)


def test_nct_settles_are_labelled_by_mode_and_metric(monkeypatch):
    """The tracer labels each ``settle_all_nct`` span from the call's bound
    ``mode`` and ``metric``, and each engine span from ``library`` and
    ``mode``: a renamed parameter fails here, not only in a traced
    benchmark round."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(lambda start, end: end - start)
    try:
        tracing.install(tracer)
        nct.settle_all_nct()
        nct.settle_all_nct("lex-max", model.NCV_012)
    finally:
        tracer.restore()
    assert [(name, label) for _, name, label, _, _ in tracer.spans] == [
        ("nct.settle_all_nct", "gate-count"), ("search.settle_all", "gate-count"),
        ("nct.settle_all_nct", "lex-max:ncv-012"), ("search.settle_all", "gate-count"),
    ]
