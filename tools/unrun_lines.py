"""List the executable lines of ``src/mvs_robust`` that no test runs.

    python tools/unrun_lines.py
    python tools/unrun_lines.py --traffic

Run it from the root of a checkout.  It runs the test suite in this
process under a line tracer (``sys.settrace`` and ``threading.settrace``,
so pool threads are traced too) that records only frames of
``src/mvs_robust``.  Every module's executable lines come from
``co_lines()`` of its compiled code, nested code objects included; it
prints each one no test ran.  It takes about 70 s on two cores, which is
why it is not a test itself.

A line in ``ALLOWED`` is known to stay unrun, for the reason given.  The
tool exits 1 if any other line is unrun or if an allowed line no longer
is (it was reached, changed or removed), else 0, whatever the tests gave.

``--traffic`` traces ``tools/cli_digests.py``'s commands in place of the
tests, in a temporary directory, and lists the lines no command runs:
the branches that command-line traffic never takes.  It uses no allowed
lines and exits 0.  It takes about 35 s on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvs_robust"

# (module, the line, the line above it), both stripped: why no test runs it
ALLOWED = {
    ("sweep.py", "except MvsRobustError as exc:",
     "rep = value_report(0.0, cell.w0, brackets)"):
        "_cell_row's guard: value_report raises ZeroDenominatorValue only where a "
        "value's denominator is exactly 0, and no tested cell has one",
    ("sweep.py", "return SweepRow(values=cell.values, status=type(exc).__name__, fields=None)",
     "except MvsRobustError as exc:"):
        "the same guard's row",
    ("cli.py", "sys.exit(main())", 'if __name__ == "__main__":'):
        "the console script calls main directly, and the tests call it in process",
}


def _executable(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # None, or 0 for a module's start
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _executable(const)
    return lines


def _trace(run) -> tuple[object, set[tuple[str, int]]]:
    """Call ``run()``; what it returns and the ``(file, line)`` pairs run."""
    prefix = str(PACKAGE) + os.sep
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hit


def _run_tests() -> None:
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print(f"pytest exit code {int(code)}")


def _run_traffic() -> None:
    """Every command of ``tools/cli_digests.py``, its listing discarded."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    import cli_digests  # imports mvs_robust, under the tracer

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        cli_digests.run_all(Path(tmp))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="List the lines of src/mvs_robust no test runs.")
    parser.add_argument("--traffic", action="store_true",
                        help="trace tools/cli_digests.py's commands in place of the tests; "
                             "no allowed lines, exit 0")
    traffic = parser.parse_args(argv).traffic
    if "mvs_robust" in sys.modules:  # its module-level lines would go unseen
        raise RuntimeError("mvs_robust was imported before the tracer")
    _, hit = _trace(_run_traffic if traffic else _run_tests)
    allowed = {} if traffic else ALLOWED
    new, seen, unrun = 0, set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = [line.strip() for line in source.splitlines()]
        for n in sorted(_executable(compile(source, str(path), "exec"))):
            if (str(path), n) in hit:
                continue
            key = (path.name, text[n - 1], text[n - 2] if n > 1 else "")
            reason = allowed.get(key)
            seen.add(key)
            new += reason is None
            unrun += 1
            note = "" if traffic else f"  [allowed: {reason}]" if reason else "  [NEW]"
            print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1]}{note}")
    if traffic:
        print(f"{unrun} lines no command runs")
        return 0
    stale = [key for key in ALLOWED if key not in seen]
    for name, line, _ in stale:
        print(f"allowed but not unrun: {name}: {line}")
    print(f"{len(seen)} unrun lines, {new} not allowed, {len(stale)} allowed lines run or gone")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
