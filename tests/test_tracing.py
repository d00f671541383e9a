"""The benchmark's tracer (``perfbench/tracing.py``) patches names bound in
the program's modules and reads its hooks' call arguments by name; a
rename there would break it without these guards."""

import importlib
from pathlib import Path

import pytest

import mvs_robust
from mvs_robust import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_patches_resolve_and_are_restored(tracing):
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


def test_traced_round_of_every_command(tracing, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[solver]\nnum_steps = 1000\n"
        "[simulation]\nnum_paths = 2000\nnum_steps = 20\n"
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 1.0\ncount = 2\n"
        "param2 = w0\nmin2 = 2\nmax2 = 4\ncount2 = 2\n"
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command in tracing.COMMANDS:
            out = [] if command == "check" else ["--out", str(tmp_path / command)]
            assert cli.main([command, "--config", str(cfg), *out]) == 0, command
    finally:
        tracer.remove()
    metrics = tracing.layer_metrics(tracer)
    for name in ("simulate.path_steps", "solver.picard_evals",
                 "solver.solve_system_calls", "sweep.cells"):
        assert metrics[name] > 0, name
    assert metrics["sweep.cells"] == 4
    assert not [key for key in tracer.counts if ".raised." in key]


def test_public_names_resolve():
    for name in mvs_robust.__all__:
        assert getattr(mvs_robust, name) is not None, name
