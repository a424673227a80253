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
