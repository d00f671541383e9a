"""Reference figures recorded in README.md: machine, pool and Monte Carlo ceiling.

    python3 perfbench/reference.py

Prints one JSON object: the machine (cores, CPU model, Python, numpy and
scipy versions), the fig01 and fig02 sweep times with the default
worker pool and with one worker, and the cost of drawing the normals of
one 16,384-path x 200-step Monte Carlo chunk with Philox and ``ndtri``,
timed with numpy and scipy directly.  That cost bounds what the
simulation can save without splitting chunks across processes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.special import ndtri

from run import OUT, import_program

CHUNK_PATHS = 16384
CHUNK_STEPS = 200
SWEEP_REPEATS = 2


def philox_chunk_seconds(repeats: int = 7) -> float:
    """Median time to draw and transform one chunk's uniforms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        gen = np.random.Generator(np.random.Philox(key=42, counter=0))
        u = gen.random(CHUNK_PATHS * CHUNK_STEPS).reshape(CHUNK_PATHS, CHUNK_STEPS)
        ndtri(np.maximum(u, 5e-324))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def sweep_seconds(cli, cfg_path: Path, out_dir: Path, threads: str | None) -> float:
    if threads is None:
        os.environ.pop("MVS_ROBUST_THREADS", None)
    else:
        os.environ["MVS_ROBUST_THREADS"] = threads
    start = time.perf_counter()
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)])
    if code != 0:
        raise SystemExit(f"sweep exited {code}")
    return time.perf_counter() - start


def main() -> int:
    cli = import_program()
    from workloads import make_workload

    out = {
        "cores": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "philox_ndtri_chunk_s": philox_chunk_seconds(),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in ("fig01-wealth-xi", "fig02-drift-gamma"):
            workload = make_workload(name, seed=0)
            (key, cfg), = workload.configs.items()
            path = Path(tmp) / f"{key}.cfg"
            path.write_text(cfg.to_text(), encoding="utf-8")
            for label, threads in (("default_pool", None), ("one_worker", "1")):
                out[f"{name}.{label}_s"] = [
                    sweep_seconds(cli, path, Path(tmp) / "out", threads)
                    for _ in range(SWEEP_REPEATS)
                ]
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
