"""Every config field is set by a caller outside the tests.

A field of :class:`~repro.core.config.WiMiConfig`,
:class:`~repro.serve.ServiceConfig` or :class:`~repro.cluster.ClusterConfig`
that only tests set is a constant with extra configurations to cover:
make it a module constant and let the tests ``monkeypatch`` it.

The scan parses ``src/``, ``examples/``, ``benchmarks/`` and
``wimibench/`` with :mod:`ast`.  A field counts as set when a call of
one of the three config classes or of ``replace`` passes it by keyword,
or when a dict literal names it as a string key (the
``config_overrides`` form).  Matching is by bare field name across the
three classes: the cluster's ``num_workers``, ``queue_capacity`` and
``max_batch_size`` are the same knobs the worker's service takes.  The
chaos soak harness does not count; it is a test harness kept in
``src/`` (see ``tests/test_public_surface.py``).

The fields without such a caller are exactly :data:`UNSET`, each with
the reason it stays.  A new field only tests set fails the test; so
does a stale allowlist entry.
"""

import ast
import dataclasses
from pathlib import Path

from repro.cluster import ClusterConfig
from repro.core.config import WiMiConfig
from repro.serve import ServiceConfig

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "examples", "benchmarks", "wimibench")
CONFIGS = (WiMiConfig, ServiceConfig, ClusterConfig)
#: Calls whose keyword arguments set config fields.
SETTERS = {config.__name__ for config in CONFIGS} | {"replace"}
#: Callers that are test harnesses, not deployments.
HARNESSES = {ROOT / "src" / "repro" / "experiments" / "soakbench.py"}

#: Fields no caller outside the tests sets, and why each stays.
UNSET = {
    "throttle_s": (
        "ClusterConfig: the test seam that slows workers across the "
        "process boundary"
    ),
    "hedge_after_s": (
        "ClusterConfig: selects the fixed or the adaptive hedge rule; "
        "the soak's hedged gate needs the fixed rule until a fake clock "
        "can drive the adaptive one (ROADMAP item 6)"
    ),
    "model_registry_path": (
        "WiMiConfig: a deployment path, set by the deployment that "
        "saves and loads its models"
    ),
}


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _set_names() -> set[str]:
    """Keyword names of config-setting calls and string dict keys."""
    names: set[str] = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if path in HARNESSES:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and _callee(node) in SETTERS:
                    names.update(k.arg for k in node.keywords if k.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    )
    return names


def _fields() -> dict[str, list[str]]:
    """``{field: [Config.field, ...]}`` over the three config classes."""
    found: dict[str, list[str]] = {}
    for config in CONFIGS:
        for field in dataclasses.fields(config):
            found.setdefault(field.name, []).append(
                f"{config.__name__}.{field.name}"
            )
    return found


def test_every_config_field_is_set_outside_tests():
    fields = _fields()
    unset = set(fields) - _set_names()
    set_only_by_tests = sorted(
        qualified
        for name in unset - set(UNSET)
        for qualified in fields[name]
    )
    assert not set_only_by_tests, (
        "config fields no caller outside the tests sets (make them "
        f"constants): {set_only_by_tests}"
    )
    stale = sorted(set(UNSET) - unset)
    assert not stale, f"allowlisted fields that now have a caller: {stale}"
