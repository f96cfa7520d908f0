"""Every function in ``src/spdc_modes`` is reached by a command.

Each golden run, plus ``schmidt`` on two configs, runs under
``sys.setprofile``; every ``def`` in the package, found with ``ast``, must
have been called. Code that only tests call belongs in ``tests/oracles.py``.
``UNREACHED`` names the exceptions, each with the reason it stays. An
exception kept for the benchmark tracer stays only while the tracer's
``SPANS`` names it, or its counter reads it; once it does not, the function
belongs in the oracles.
"""

import ast
import importlib.util
import os
import sys
import types

import spdc_modes
from spdc_modes.cli import main

from test_golden import CONFIG_DIR, RUNS
from test_spans import TRACER

PACKAGE = os.path.dirname(os.path.abspath(spdc_modes.__file__))

TRACED = "the benchmark tracer's SPANS names it, and tests/test_spans.py checks that it exists"
AMP_BYTES = "perfbench/tracer.py's kernel.amp_bytes counter reads it"
# qualified name -> why it stays in the package though no command calls it
UNREACHED = {
    "kernel.build_double_gaussian": TRACED,
    "kernel.build_from_pump": TRACED,
    "config.RunConfig.normalized": "the planned run record writes the normalized config",
    "kernel.TpaKernel.amplitude": AMP_BYTES,
}


def package_functions() -> dict:
    """(file, first line of the code object) -> module-qualified name of every def."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, line)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, "r", encoding="utf-8") as fh:
                walk(ast.parse(fh.read()), path, f"{name[:-3]}.")
    return found


def test_every_function_is_reached_by_a_command(tmp_path, capsys):
    runs = [(command, config, flags) for command, config, flags, _files in RUNS]
    runs += [("schmidt", "single_mode", ()), ("schmidt", "three_modes", ())]
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    for i, (command, config, flags) in enumerate(runs):
        argv = [command, "--config", os.path.join(CONFIG_DIR, f"{config}.yaml"),
                "--out", str(tmp_path / str(i)), *flags]
        sys.setprofile(profile)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0, argv
    capsys.readouterr()

    defined = package_functions()
    assert set(UNREACHED) <= set(defined.values())
    unreached = sorted(name for key, name in defined.items() if key not in called)
    assert unreached == sorted(UNREACHED)


def test_traced_exceptions_are_still_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = {f"{module}.{name}" for module, name in tracer.SPANS}
    stale = sorted(name for name, why in UNREACHED.items() if why == TRACED and name not in spans)
    # kernel.amp_bytes reads the amplitude of the kernel a builder returns
    read = []

    class Kernel:
        @property
        def amplitude(self):
            read.append(True)
            return types.SimpleNamespace(nbytes=0)

    tracer._counters("kernel.build_multipeak", (), {}, Kernel())
    if not read:
        stale += sorted(name for name, why in UNREACHED.items() if why == AMP_BYTES)
    assert stale == [], f"no longer traced, so move to tests/oracles.py: {stale}"
