"""The benchmark tracer wraps public ``equlat`` names; renaming or removing
one must fail here rather than in a benchmark run."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # resolves the traced classes' names
    missing = [
        name
        for name, owner, attr, _ in tracer.TARGETS
        if (attr not in owner.__dict__ if isinstance(owner, type) else not hasattr(owner, attr))
    ]
    assert missing == []

