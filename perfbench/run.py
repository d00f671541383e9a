"""Benchmark of the mvs-robust command line, end to end and per layer.

    python3 perfbench/run.py --workload fig01-wealth-xi --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; the program is imported from ``src``
(the same as ``PYTHONPATH=src``), so nothing needs installing.  A run
generates the workload's configs from ``--seed``, times a fresh
interpreter's set-up, then runs whole rounds of the workload's CLI
commands in this process through ``mvs_robust.cli.main`` until
``--seconds`` have passed (at least two rounds, one with ``--trace 1``,
which then adds one traced round).  Every CSV and check report is
compared by digest across rounds, and the first of each is checked
against computations made apart from the program (``verify.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--smoke``
runs every workload at a small size with one plain and one traced round
and exits 0 only if every check passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
END_TO_END = {"setup_s": "s", "commands_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBE = (
    "import sys\n"
    "import mvs_robust.cli as cli\n"
    "for path in sys.argv[1:]:\n"
    "    cli.load_config(path)\n"
)


@dataclass
class OpResult:
    ok: bool
    seconds: float
    digest: str
    files: dict[str, str] = field(repr=False)
    stdout: str = field(repr=False)


def import_program():
    if not (SRC / "mvs_robust" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'mvs_robust'}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import mvs_robust.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's {SRC}")
    return cli


def run_op(cli, op, config_path: Path, out_dir: Path) -> OpResult:
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [op.command, "--config", str(config_path)]
    if op.command != "check":
        argv += ["--out", str(out_dir)]
    argv += list(op.extra)
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    except Exception:  # a crash is one failed operation; the run goes on
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    digest = hashlib.sha256()
    files = {}
    for path in sorted(out_dir.glob("*.csv")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        files[path.name] = data.decode("utf-8")
    digest.update(stdout.getvalue().encode())
    return OpResult(code == 0, seconds, digest.hexdigest(), files, stdout.getvalue())


def run_round(cli, workload, paths, out: Path, tracer=None) -> list[OpResult]:
    results = []
    for i, op in enumerate(workload.ops):
        traced = tracer is not None and op.timed
        if traced:
            tracer.install()
        try:
            results.append(run_op(cli, op, paths[op.config], out / f"op{i}"))
        finally:
            if traced:
                tracer.remove()
    return results


def commands_seconds(workload, results, command=None) -> float:
    """Time of the round's timed operations, failed ones included."""
    return sum((r.seconds for op, r in zip(workload.ops, results)
                if op.timed and command in (None, op.command)), 0.0)


def setup_seconds(paths) -> float:
    """Fresh interpreter: import ``mvs_robust.cli`` and load every config."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, *map(str, paths)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import tracing
    import verify
    from workloads import make_workload

    workload = make_workload(name, seed, smoke)
    out = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        out.mkdir(parents=True)
        paths = {}
        for key, cfg in workload.configs.items():
            paths[key] = out / f"{key}.cfg"
            paths[key].write_text(cfg.to_text(), encoding="utf-8")
        inputs = hashlib.sha256(b"".join(p.read_bytes() for p in paths.values())).hexdigest()
        setup = [setup_seconds(paths.values()) for _ in range(1 if smoke else SETUP_REPEATS)]

        rounds = []
        min_rounds = 1 if trace else MIN_ROUNDS
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
            rounds.append(run_round(cli, workload, paths, out))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            rounds.append(run_round(cli, workload, paths, out, tracer))

        # Operations fail by exit code, or by output bytes that differ
        # from the first successful round's.
        first = {}
        failed = 0
        for number, results in enumerate(rounds, start=1):
            for op, r in zip(workload.ops, results):
                if r.ok and first.setdefault(op.label, r).digest != r.digest:
                    r.ok = False
                    print(f"round {number}: {op.label} output differs from its first "
                          "successful round", file=sys.stderr)
                failed += not r.ok
            print(f"round {number}{' (traced)' if trace and number == len(rounds) else ''}: "
                  + ", ".join(f"{op.label} {r.seconds:.3f}s {'ok' if r.ok else 'FAILED'}"
                              for op, r in zip(workload.ops, results)))
        problems = verify.verify_workload(
            workload, {label: (r.files, r.stdout) for label, r in first.items()})
        for problem in problems:
            print(f"incorrect: {problem}", file=sys.stderr)

        plain = rounds[:-1] if trace else rounds
        untraced_s = statistics.median(commands_seconds(workload, r) for r in plain)
        if trace:
            metrics = tracing.layer_metrics(tracer)
            for cmd in tracing.COMMANDS:
                metrics[f"cli.{cmd}_s"] = statistics.median(
                    commands_seconds(workload, r, cmd) for r in plain)
            traced_s = commands_seconds(workload, rounds[-1])
            metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
            exact = {k: metrics[k] for k in tracing.EXACT_COUNTERS}
            print("exact counters: " + json.dumps(
                {"workload": name, "seed": seed, "inputs_sha256": inputs, **exact}))
            units = tracing.PER_LAYER
        else:
            metrics = {
                "setup_s": statistics.median(setup),
                "commands_s": untraced_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
        return {
            "correct": not problems,
            "attempted": sum(len(r) for r in rounds),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        }
    finally:
        shutil.rmtree(out, ignore_errors=True)


def smoke(cli) -> int:
    """Every workload at a small size; 0 only if every check passes."""
    import tracing
    from workloads import WORKLOAD_NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = []
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        bad.append("end_to_end names differ from BENCHMARK.json")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != tracing.PER_LAYER:
        bad.append("per_layer names or units differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        bad.append("workload names differ from BENCHMARK.json")
    for name in WORKLOAD_NAMES:
        result = run_workload(cli, name, seed=1, seconds=0.0, trace=True, smoke=True)
        print(json.dumps({"workload": name, **result}))
        if not result["correct"]:
            bad.append(f"{name}: incorrect output")
    for problem in bad:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a small size, every check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    cli = import_program()
    # One sweep worker: the default pool is slower here and its times spread
    # too widely to bound (README.md has the default-pool figures).
    os.environ["MVS_ROBUST_THREADS"] = "1"
    if args.smoke:
        return smoke(cli)
    from workloads import WORKLOAD_NAMES
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOAD_NAMES}")
    result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace),
                          smoke=False)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
