"""The benchmark's instrumentation still finds every entry point it wraps."""

import importlib.util
from pathlib import Path

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


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
