"""End-to-end speed gate behind ``repro bench e2e``.

WiMi's product is one answer per capture session, so the speed that
matters is the wall-clock ``identify`` of the end-to-end benchmark
(``wimibench/``), not any kernel on its own.  This suite runs that
benchmark, unchanged, on two checkouts:

* the **change** -- the working tree the command runs in;
* the **parent** -- a detached ``git worktree`` of the parent revision
  in a temporary directory, removed when the suite ends.  The parent is
  ``HEAD`` while ``src/`` has uncommitted changes, else ``HEAD^1`` (on a
  pull-request merge checkout, the tip of the base branch).

The change's ``wimibench/`` and ``BENCHMARK.json`` are copied over the
parent worktree first, so both sides run the same benchmark code.  Runs
alternate which side goes first, pair by pair, for every workload
``BENCHMARK.json`` declares.  :func:`e2e_verdict` turns the runs into the
gate by ``BENCHMARK.json``'s own bounds.  The ``stream`` workload's
first estimate and finalize, from wimibench's details line, are judged
as two more rows by the ``identify_ms`` bound.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

#: ``mode -> (pairs, seconds per run)``; None runs for ``BENCHMARK.json``'s
#: ``run_seconds``.
PLAN = {"smoke": (3, 3.0), "full": (10, None)}

#: A run still going this many seconds past its ``--seconds`` is killed
#: and counts as a failed run.
RUN_GRACE_S = 600.0

#: Latencies from wimibench's details line that get a row of their own,
#: judged by the ``identify_ms`` bound, on any workload whose runs all
#: report them (today ``stream``).
DETAIL_METRICS = ("first_estimate_ms", "finalize_ms")


def _git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True
    )


def parent_revision(root: Path) -> str:
    """Commit id of the revision the working tree at ``root`` changes."""
    diff = _git(root, "diff", "--quiet", "HEAD", "--", "src")
    if diff.returncode not in (0, 1):
        raise RuntimeError(f"git diff failed: {diff.stderr.strip()}")
    revision = "HEAD" if diff.returncode == 1 else "HEAD^1"
    parsed = _git(root, "rev-parse", "--verify", f"{revision}^{{commit}}")
    if parsed.returncode != 0:
        raise RuntimeError(
            f"no parent revision {revision}: {parsed.stderr.strip()} "
            "(a shallow clone needs a fetch depth of at least 2)"
        )
    return parsed.stdout.strip()


def run_once(
    checkout: Path,
    command: list[str],
    workload: str,
    seed: int,
    seconds: float,
) -> dict | None:
    """The last-line JSON of one benchmark run, or None when the run
    exited non-zero, timed out or printed no JSON.

    The details line printed just before it is kept under ``"details"``
    (empty when there is none or it is not JSON).
    """
    try:
        proc = subprocess.run(
            [*command, "--workload", workload, "--seed", str(seed),
             "--seconds", f"{seconds:g}", "--trace", "0"],
            cwd=checkout, capture_output=True, text=True,
            timeout=seconds + RUN_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    try:
        details = json.loads(lines[-2]) if len(lines) > 1 else {}
    except json.JSONDecodeError:
        details = {}
    result["details"] = details if isinstance(details, dict) else {}
    return result


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _metric_row(parent: list[float], change: list[float], spec: dict) -> dict:
    """One metric of one workload, judged by its declared bound.

    ``fail`` when the change's median is worse than the parent's by more
    than ``bound`` times the parent's median.  When the parent's own
    interquartile range is wider than that, a regression of the bound's
    size cannot be told from noise: ``unresolved``, unless every change
    run reads better than every parent run.
    """
    p, c = _quartiles(parent), _quartiles(change)
    # Signed so that larger is worse for either direction.
    sign = 1.0 if spec["better"] == "lower" else -1.0
    allowance = spec["bound"] * abs(p["median"])
    if p["q3"] - p["q1"] > allowance:
        beats_all = max(sign * v for v in change) < min(
            sign * v for v in parent
        )
        verdict = "pass" if beats_all else "unresolved"
    elif sign * (c["median"] - p["median"]) > allowance:
        verdict = "fail"
    else:
        verdict = "pass"
    return {
        "parent": p, "change": c, "n": [len(parent), len(change)],
        "better": spec["better"], "bound": spec["bound"],
        "verdict": verdict,
    }


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def e2e_verdict(
    parent_runs: dict[str, list[dict | None]],
    change_runs: dict[str, list[dict | None]],
    declared: dict,
) -> dict:
    """The gate over both sides' runs, per workload.

    ``*_runs`` map each workload to :func:`run_once`'s result for each
    of its runs (None for a failed run); ``declared`` is
    ``BENCHMARK.json``.
    Every end-to-end metric gets a row (:func:`_metric_row`), and so does
    each of :data:`DETAIL_METRICS` that every run on both sides reports
    in its ``details``, by the ``identify_ms`` spec.  Every workload has
    three more gates: all runs exited zero (``exit``), no change
    run printed ``"correct": false`` (``correct``), and the change's
    summed ``failed/attempted`` is no higher than the parent's
    (``failed_share``).  ``gates`` names each as ``workload/check``.
    """
    sides = {"parent": parent_runs, "change": change_runs}
    specs = {spec["name"]: spec for spec in declared["end_to_end"]}
    workloads: dict[str, dict] = {}
    gates: dict[str, bool] = {}
    for name in change_runs:
        ran = {
            side: [r for r in runs[name] if r is not None]
            for side, runs in sides.items()
        }
        rows = {}
        if ran["parent"] and ran["change"]:
            for spec in declared["end_to_end"]:
                metric = spec["name"]
                values = {
                    side: [r["metrics"][metric]["value"] for r in ran[side]]
                    for side in ran
                }
                rows[metric] = _metric_row(
                    values["parent"], values["change"], spec
                )
            for metric in DETAIL_METRICS:
                values = {
                    side: [r["details"].get(metric) for r in ran[side]]
                    for side in ran
                }
                if None not in values["parent"] + values["change"]:
                    rows[metric] = _metric_row(
                        values["parent"], values["change"],
                        specs["identify_ms"],
                    )
            for metric, row in rows.items():
                gates[f"{name}/{metric}"] = row["verdict"] != "fail"
        shares = {side: _failed_share(ran[side]) for side in ran}
        gates[f"{name}/exit"] = all(
            None not in runs[name] for runs in sides.values()
        )
        gates[f"{name}/correct"] = all(r["correct"] for r in ran["change"])
        gates[f"{name}/failed_share"] = shares["change"] <= shares["parent"]
        workloads[name] = {"metrics": rows, "failed_share": shares}
    return {"workloads": workloads, "gates": gates}


def _prepare_parent(root: Path, revision: str, checkout: Path) -> None:
    """Check ``revision`` out at ``checkout`` with the change's benchmark."""
    added = _git(root, "worktree", "add", "--detach", str(checkout), revision)
    if added.returncode != 0:
        raise RuntimeError(f"git worktree add failed: {added.stderr.strip()}")
    shutil.rmtree(checkout / "wimibench", ignore_errors=True)
    shutil.copytree(
        root / "wimibench", checkout / "wimibench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy2(root / "BENCHMARK.json", checkout / "BENCHMARK.json")


def run_suite(mode: str = "full", seed: int = 1, progress=None) -> dict:
    """Alternating parent/change pairs of every declared workload.

    Runs from the root of the git checkout the process is in.
    """
    top = _git(Path.cwd(), "rev-parse", "--show-toplevel")
    if top.returncode != 0:
        raise RuntimeError("repro bench e2e runs inside a git checkout")
    root = Path(top.stdout.strip())
    declared = json.loads((root / "BENCHMARK.json").read_text())
    pairs, seconds = PLAN[mode]
    seconds = seconds or float(declared["run_seconds"])
    revision = parent_revision(root)
    names = [w["name"] for w in declared["workloads"]]
    runs = {side: {n: [] for n in names} for side in ("parent", "change")}
    scratch = Path(tempfile.mkdtemp(prefix="wimi-e2e-"))
    parent = scratch / "parent"
    try:
        _prepare_parent(root, revision, parent)
        checkouts = {"parent": parent, "change": root}
        for name in names:
            for index in range(pairs):
                order = ("parent", "change") if index % 2 == 0 else (
                    "change", "parent"
                )
                for side in order:
                    if progress is not None:
                        progress(f"{name} pair {index + 1}/{pairs} {side}")
                    runs[side][name].append(
                        run_once(
                            checkouts[side], declared["command"], name,
                            seed, seconds,
                        )
                    )
    finally:
        _git(root, "worktree", "remove", "--force", str(parent))
        shutil.rmtree(scratch, ignore_errors=True)
        _git(root, "worktree", "prune")
    return {
        "parent_revision": revision,
        "pairs": pairs,
        "seconds": seconds,
        "seed": seed,
        "runs": runs,
        **e2e_verdict(runs["parent"], runs["change"], declared),
    }


def render_report(results: dict) -> str:
    """One row per workload and metric: parent and change median with
    quartiles, the sample counts and the verdict."""
    lines = [
        f"e2e -- wimibench on the change vs parent "
        f"{results['parent_revision'][:12]} ({results['pairs']} pairs of "
        f"{results['seconds']:g} s, seed {results['seed']})",
        f"  {'workload/metric':<22} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'n':>5}  verdict",
    ]

    def cell(q: dict) -> str:
        return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"

    for name, workload in results["workloads"].items():
        for metric, row in workload["metrics"].items():
            lines.append(
                f"  {name + '/' + metric:<22} {cell(row['parent']):>30} "
                f"{cell(row['change']):>30} "
                f"{row['n'][0]:>2}/{row['n'][1]:<2}  {row['verdict']}"
            )
        shares = workload["failed_share"]
        verdict = "pass" if results["gates"][f"{name}/failed_share"] else "fail"
        lines.append(
            f"  {name + '/failed_share':<22} {shares['parent']:>30.4g} "
            f"{shares['change']:>30.4g}        {verdict}"
        )
    return "\n".join(lines)
