"""The benchmark's instrumentation still finds every entry point it wraps,
and every program function has a caller in the program."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HOOKS = ROOT / "perfbench" / "hooks.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    """Each span and special target of `perfbench.hooks.Tracer` names a
    function or method that exists; a renamed one would show only as a
    `trace target ... not found` error in traced benchmark runs."""
    tracer = load_hooks().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def referenced_names(tree) -> Counter:
    """How often each name is read, called or imported in an AST."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def test_every_program_function_has_a_program_caller():
    """Each module-level function and non-dunder method under
    `src/relattn/` is named somewhere in `src/` or `perfbench/` outside
    its own definition, so no program code lives on for tests alone.
    `gradcheck.py` is the exception: the tests are its callers."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "relattn" or path.name == "gradcheck.py":
            continue
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [node for node in cls.body if isinstance(node, ast.FunctionDef)
                     and not (node.name.startswith("__") and node.name.endswith("__"))]
        for node in defs:
            if everywhere[node.name] == referenced_names(node)[node.name]:
                unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert unread == []
