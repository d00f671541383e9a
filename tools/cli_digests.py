"""Digest every CLI output on a fixed set of configs, to compare two checkouts.

    PYTHONPATH=src python tools/cli_digests.py > digests.txt

Run it from the root of each checkout and ``diff`` the two listings.  It
runs ``mvs_robust.cli.main`` in this process on the configs below (``solve``
of four variants, ``simulate`` and ``check``), on ``sweep`` of every figure
preset and on ``sweep`` of the configs in ``SWEEPS``, in a temporary
directory it removes afterwards.  It prints one ``exit <code>  <command>``
line per command and one ``<sha256>  <path>`` line per output file.  What
a command prints, standard output and standard error together, is hashed
as ``<config>/<command>.out`` (``presets/figures.out`` for ``figures``),
so an error text is compared as well as an exit code; ``run.meta`` is
hashed without its ``command =`` line, which names the temporary directory.
A command that raises instead of returning an exit code reads
``exit <ExceptionClass>``, and its ``.out`` ends with the class and message.
Neither a crash nor a warning prints a file path, which would name the
checkout: a warning prints as its class and message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
import warnings
from pathlib import Path

from mvs_robust.cli import main

THREE_ASSET = (
    "[market]\nmu = 0.12, 0.15, 0.18\n"
    "sigma = 0.20, 0, 0; 0.06, 0.22, 0; 0.04, 0.05, 0.25\n"
)
CONFIGS = {
    "base": "",
    "three-asset": THREE_ASSET,
    "off-node": "[simulation]\nstart_time = 0.0013\n",
    "reference-euler": (
        "[simulation]\nstart_time = 1.2345\nmeasure = reference\nscheme = euler\n"
    ),
    # a one-asset market where beta^2 / Sigma and a solve-and-dot differ by 1 ulp
    "mu-0.10-sigma-0.2": "[market]\nmu = 0.10\nsigma = 0.2\n",
    # solvable, but plain Picard's own error at 2,000 steps exceeds 1e-6
    "found": (
        "[market]\nmu = 0.27903\nsigma = 0.32978\n"
        "[preferences]\ngamma0 = 2.27791\nphi0 = 2.62057\nxi = 1.41690\n"
    ),
    # padded Philox blocks (199 steps) and several chunks, the last one partial
    "padded-multichunk": "[simulation]\nnum_steps = 199\nnum_paths = 40000\n",
    # a last chunk of 8,200 paths: seven 1,024-path leaves, then leaves of 512 and 520
    "uneven-leaves": "[simulation]\nnum_paths = 24584\nnum_steps = 13\n",
    # leaves of fewer than 1,024 paths, and a last block of 7 of the march's 25-step blocks
    "ragged-blocks": "[simulation]\nnum_paths = 5000\nnum_steps = 57\nscheme = euler\n",
    # one chunk, so no chunk merge
    "single-chunk": "[simulation]\nnum_paths = 1000\n",
    # four nodes, so every interpolation stencil spans the whole grid; check fails
    "coarse": (
        "[solver]\nnum_steps = 3\n"
        "[simulation]\nnum_paths = 2000\nnum_steps = 7\nstart_time = 2.0\n"
    ),
    # r = mu, so theta = 0: every strategy is 0 and every standard error exactly 0
    "zero-premium": "[market]\nr = 0.15\n[simulation]\nnum_paths = 2000\n",
    # start wealths where numpy's power and Python's ** can differ in the last bit
    "wealth-2.718": "[simulation]\nstart_wealth = 2.718\nnum_paths = 20000\n",
    "wealth-5.431-3asset": THREE_ASSET + "[simulation]\nstart_wealth = 5.431\n",
    # the FULL solve degenerates at node 72: solve and simulate exit 3, check fails every line
    "degenerate": "[preferences]\ngamma0 = 1.0\n",
    # a start wealth whose fourth power overflows, which load rejects
    "huge-wealth": "[simulation]\nstart_wealth = 1.16e77\n",
    # the sampled third and fourth moments' standard errors are not finite,
    # so those bands and the objective's fail
    "wealth-1e70": "[simulation]\nstart_wealth = 1e70\nnum_paths = 2000\nnum_steps = 20\n",
}
# sweeps beyond the figure presets, which all have one asset
SWEEPS = {
    # several assets, so u_star and q_star are the norms of allocation and distortion
    "three-asset-xi-r": THREE_ASSET + (
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3.0\ncount = 3\n"
        "param2 = r\nmin2 = 0.03\nmax2 = 0.06\ncount2 = 2\n"
    ),
    # one axis, so a one-parameter header and ``sweep_grid``'s one-axis branch
    "base-xi": "[sweep]\nparam = xi\nmin = 0.5\nmax = 3.0\ncount = 4\n",
    # a guard of 0.3 on 200 steps: coefficient lanes fail on their denominator,
    # the misspecified lanes they drive fail with them, and others fail on their own
    # denominator or ratio, so 9 of the 12 cells read DegenerateDenominator
    "ratio-guard": (
        "[solver]\nnum_steps = 200\neps_den = 0.3\n"
        "[sweep]\nparam = xi\nmin = 0.5\nmax = 3\ncount = 3\n"
        "param2 = gamma0\nmin2 = 1\nmax2 = 4\ncount2 = 4\n"
    ),
}


def _run(argv: list[str], where: Path) -> None:
    """Run one command and keep what it prints as ``where/<command>.out``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is an outcome to compare, not a reason to stop
            code = type(exc).__name__
            print(f"{code}: {exc}")
    print(f"exit {code}  {' '.join(argv[:1] + [Path(a).name for a in argv[1:]])}")
    where.mkdir(parents=True, exist_ok=True)
    (where / f"{argv[0]}.out").write_text(out.getvalue())


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "run.meta":
        data = b"".join(
            line for line in data.splitlines(keepends=True) if not line.startswith(b"command =")
        )
    return hashlib.sha256(data).hexdigest()


def run_all(root: Path) -> None:
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    for name, text in CONFIGS.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text(text)
        _run(["solve", "--config", str(cfg), "--out", str(root / name / "solve"),
              "--variants", "full,neutral,noskew,basic"], root / name)
        _run(["simulate", "--config", str(cfg), "--out", str(root / name / "simulate")],
             root / name)
        _run(["check", "--config", str(cfg)], root / name)
    _run(["figures", "--out", str(root / "presets")], root / "presets")
    for name, text in SWEEPS.items():
        (root / f"{name}.cfg").write_text(text)
    sweeps = sorted((root / "presets").glob("*.cfg")) + [root / f"{name}.cfg" for name in SWEEPS]
    for cfg in sweeps:
        _run(["sweep", "--config", str(cfg), "--out", str(root / "sweep" / cfg.stem)],
             root / "sweep" / cfg.stem)
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.parent != root):
        print(f"{_digest(path)}  {path.relative_to(root)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp))
