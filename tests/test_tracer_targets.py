"""Every function the benchmark's tracer wraps still exists in hesscomb.

perfbench/tracer.py names its targets as (module, attribute) strings and looks
them up when a traced run starts, so a function deleted from the library
breaks that run.  This reads the target list from the file and resolves each
entry to a callable in its module."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    for module, attr, _layer, _hook in targets:
        owner = importlib.import_module(module)
        for name in attr.split("."):
            assert hasattr(owner, name), f"{module}.{attr}"
            owner = getattr(owner, name)
        assert callable(owner), f"{module}.{attr}"
