"""The benchmark's tracer (``perfbench/tracing.py``) patches names bound in
the program's modules; a rename there would break it without this guard."""

import importlib
from pathlib import Path

import mvs_robust

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.remove()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_public_names_resolve():
    for name in mvs_robust.__all__:
        assert getattr(mvs_robust, name) is not None, name
