"""The benchmark tracer's span table names live functions of the package."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_every_traced_span_resolves():
    # a renamed or deleted function would leave its span unrecorded, and only
    # the slow benchmark smoke run would notice
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, name in tracer.SPANS
               if not callable(getattr(importlib.import_module(f"spdc_modes.{module}"),
                                       name, None))]
    assert tracer.SPANS and missing == []
