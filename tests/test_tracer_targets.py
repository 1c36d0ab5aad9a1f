"""Every name the benchmark's per-layer tracer wraps must still exist.

``perfbench/tracer.py`` rebinds each ``TARGETS`` entry by name when a traced
run starts; a folded or renamed function would make that run fail with
``KeyError`` or ``AttributeError``.  The tracer is loaded by path so this
test runs without putting ``perfbench`` on the import path.
"""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module_name, qual in tracer.TARGETS:
        owner = importlib.import_module(f"covdilate.{module_name}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            # the tracer wraps the attribute found in the class's own namespace
            assert callable(vars(getattr(owner, cls_name))[attr]), (module_name, qual)
        else:
            assert callable(getattr(owner, qual)), (module_name, qual)
