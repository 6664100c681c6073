"""Every public name in ``src/repro`` has a caller outside the tests.

The scan parses ``src/repro`` with :mod:`ast` and collects every public
top-level function or class and every public method.  A name counts as
used when ``src/``, ``examples/``, ``benchmarks/`` or ``wimibench/``
mention it as a name, an attribute or a string constant; package
re-exports and ``__all__`` entries do not count, since they are not
calls.  Matching is by bare name, so a method is used as soon as any
attribute of that name is read somewhere.

The names without such a caller are exactly :data:`KEPT`, each with the
reason it stays.  A new public name reached only from tests fails the
test (make it private or delete it); so does a stale allowlist entry.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks", "wimibench")

#: Public names with no caller outside the tests, and why each stays.
KEPT = {
    "load_session": "csi/io.py: the trace reader ROADMAP item 9 gives a caller",
    "load_trace": "csi/io.py: the trace reader ROADMAP item 9 gives a caller",
    "save_session": "csi/io.py: the trace writer ROADMAP item 9 gives a caller",
    "save_trace": "csi/io.py: the trace writer ROADMAP item 9 gives a caller",
    "identify_with_confidence": "README and ROADMAP item 9 document it",
    "rollback": "ModelRegistry.rollback is documented in the README",
    "render_text": "MetricsRegistry.render_text is documented in the README",
    "mean_accuracy_over_seeds": "documented in the README",
    "install_signal_handlers": "the three serving front ends, DESIGN §8/§15",
    "AgcClipping": "csi/faults.py injector: test harness",
    "DuplicatePackets": "csi/faults.py injector: test harness",
    "PacketReorder": "csi/faults.py injector: test harness",
    "TimestampJitter": "csi/faults.py injector: test harness",
    "truncate_file": "csi/faults.py injector: test harness",
    "clean_profile": "test harness; moving it into tests/ is no reduction",
    "run_soak_bench": "test harness; moving it into tests/ is no reduction",
    "phase_difference_variance": "oracle of the axis form",
}


def _public_definitions() -> dict[str, list[str]]:
    """``{name: [qualified definitions]}`` of the public surface."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if not node.name.startswith("_"):
                found.setdefault(node.name, []).append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        found.setdefault(item.name, []).append(
                            f"{module}.{node.name}.{item.name}"
                        )
    return found


def _referenced_names() -> set[str]:
    """Names, attributes and string constants outside ``__all__``."""
    names: set[str] = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            tree = ast.parse(path.read_text())
            exports = {
                id(inner)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                )
                for inner in ast.walk(node)
            }
            for node in ast.walk(tree):
                if id(node) in exports:
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    definitions = _public_definitions()
    unused = set(definitions) - _referenced_names()
    reached_only_by_tests = sorted(
        qualified
        for name in unused - set(KEPT)
        for qualified in definitions[name]
    )
    assert not reached_only_by_tests, (
        "public names with no caller outside tests: "
        f"{reached_only_by_tests}"
    )
    stale = sorted(set(KEPT) - unused)
    assert not stale, f"allowlisted names that now have a caller: {stale}"
