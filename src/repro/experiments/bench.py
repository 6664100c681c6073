"""One harness behind ``repro bench <suite>``.

Every benchmark is one :class:`Suite` in :data:`SUITES`: how to run it,
how to render its results and which committed artifact it writes.  The
runner (:func:`run_bench`) is the only code that writes reports and
decides the exit status, so every suite shares one report layout::

    {"schema": 1, "benchmark": <suite>, "suites": {<mode>: results}}

with ``smoke`` and ``full`` results stored side by side.  Each result
carries a ``gates`` dict of named booleans, and the runner fails when
any gate is false.

The ``e2e`` suite is the only timing gate: it runs the end-to-end
benchmark (``wimibench/``) on the change and on its parent and judges
them by the bounds ``BENCHMARK.json`` declares, the streamed session's
first estimate and finalize included.  ``robustness`` is the
report-only accuracy-under-fault sweep.  Component contracts (stage
cache, service, warm start, cluster, chaos soak) are held by tests, not
by suites here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

from repro.experiments import e2ebench, robustness


class Suite(NamedTuple):
    """One benchmark suite of ``repro bench``."""

    #: ``run(mode, seed, progress) -> results``; ``mode`` is
    #: ``"smoke"`` (CI-sized) or ``"full"``.
    run: Callable[[str, int, Callable[[str], None] | None], dict]
    #: Human-readable summary of one result (gates are rendered by the
    #: runner, not by the suite).
    render: Callable[[dict], str]
    description: str
    #: Committed report the suite writes by default; None for suites
    #: without one.
    artifact: str | None = None
    #: Whether the suite has a ``"smoke"`` size; a suite without one
    #: runs only ``"full"``.
    smoke: bool = False


# ----------------------------------------------------------------------
# Report I/O (shared by every suite)
# ----------------------------------------------------------------------


def load_report(path: str | Path) -> dict | None:
    """The report at ``path``, or None when absent/unreadable or not a
    report (a JSON object whose ``suites`` is an object)."""
    path = Path(path)
    if not path.is_file():
        return None
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(report, dict) and isinstance(report.get("suites"), dict):
        return report
    return None


def write_report(
    path: str | Path, suite: str, mode: str, results: dict
) -> dict:
    """Write/merge ``results`` under ``mode`` into the report at ``path``.

    Modes are stored side by side so a smoke-only run does not clobber
    the committed full-suite results.
    """
    report = load_report(path) or {"schema": 1, "suites": {}}
    report["benchmark"] = suite
    report["suites"][mode] = results
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    )
    return report


# ----------------------------------------------------------------------
# The suite table and the runner
# ----------------------------------------------------------------------

#: Every suite of ``repro bench``, by name.
SUITES: dict[str, Suite] = {
    "e2e": Suite(
        e2ebench.run_suite, e2ebench.render_report,
        "wimibench on the change vs its parent, by BENCHMARK.json bounds",
        smoke=True,
    ),
    "robustness": Suite(
        robustness.run_suite, robustness.render_report,
        "accuracy-under-fault sweeps (loss, dead antenna)",
        artifact="ROBUSTNESS_PR5.json",
    ),
}


def render(name: str, results: dict) -> str:
    """The suite's own summary followed by the gate verdict."""
    gates = results.get("gates", {})
    lines = [SUITES[name].render(results)]
    failed = sorted(gate for gate, passed in gates.items() if not passed)
    if failed:
        lines.append(f"  GATES FAILED: {', '.join(failed)}")
    elif gates:
        lines.append(f"  all gates passed ({len(gates)})")
    else:
        lines.append("  no gates (report only)")
    return "\n".join(lines)


def run_bench(
    name: str,
    *,
    smoke: bool = False,
    seed: int = 1,
    output: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> tuple[str, bool]:
    """Run one suite; returns ``(rendered report, every gate passed)``."""
    mode = "smoke" if smoke else "full"
    results = SUITES[name].run(mode, seed, progress)
    gates = results.setdefault("gates", {})
    text = render(name, results)
    if output is not None:
        write_report(output, name, mode, results)
        text += f"\n  report written to {output}"
    return text, all(gates.values())
