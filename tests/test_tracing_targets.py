"""Every name the benchmark's span tracer wraps must still resolve.

``perfbench/tracing.py`` wraps its targets by name with a bare ``getattr``,
so a refactor that renames or drops one breaks ``run.py --trace 1`` while
every untraced run stays green. The module is only loaded, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    targets = [(module, (attr,)) for module, attr, _ in tracing.FUNCTION_SPANS]
    targets += [(module, (cls, method)) for module, cls, method, _ in tracing.METHOD_SPANS]
    missing = []
    for module, path in targets:
        owner = importlib.import_module(module)
        for name in path:
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(".".join((module, *path)))
    assert not missing, f"the tracer wraps names that no longer exist: {missing}"
