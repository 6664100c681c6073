"""Text rendering of experiment outputs.

Each helper turns one figure-function's dict into the rows/series the
paper reports, as plain text suitable for benchmark logs and
EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.ml.validation import ConfusionMatrix


def format_scalar_table(title: str, rows: dict, unit: str = "") -> str:
    """Render ``{label: number}`` as an aligned two-column table."""
    if not rows:
        raise ValueError("no rows to format")
    width = max(len(str(k)) for k in rows)
    lines = [title]
    for key, value in rows.items():
        suffix = f" {unit}" if unit else ""
        lines.append(f"  {str(key):<{width}}  {value:8.3f}{suffix}")
    return "\n".join(lines)


def format_confusion(title: str, confusion: ConfusionMatrix) -> str:
    """Render a confusion matrix like the paper's Fig. 15/16."""
    return f"{title}\n{confusion.render()}\n  overall accuracy: {confusion.accuracy:.3f}"


def format_cluster_table(title: str, clusters: dict) -> str:
    """Render Fig. 9 style per-material feature clusters."""
    lines = [title, f"  {'material':<16} {'measured':>10} {'std':>8} {'theory':>8}"]
    for name, stats in clusters.items():
        lines.append(
            f"  {name:<16} {stats['mean']:>10.4f} {stats['std']:>8.4f} "
            f"{stats['theory']:>8.4f}"
        )
    return "\n".join(lines)


def format_environment_series(title: str, data: dict, x_label: str) -> str:
    """Render Fig. 17/18 style per-environment accuracy series."""
    lines = [title]
    for env, series in data.items():
        lines.append(f"  [{env}]")
        for x, acc in series:
            lines.append(f"    {x_label}={x:<6g} accuracy={acc:.3f}")
    return "\n".join(lines)


def format_pair_variance(title: str, data: dict) -> str:
    """Render Fig. 10 per-antenna-combination variances."""
    lines = [title, f"  {'pair':<8} {'phase var':>12} {'ratio var':>12}"]
    for pair, stats in data.items():
        label = f"{pair[0] + 1}&{pair[1] + 1}"
        lines.append(
            f"  {label:<8} {stats['phase_variance']:>12.5f} "
            f"{stats['ratio_variance']:>12.5f}"
        )
    return "\n".join(lines)
