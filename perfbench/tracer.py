"""In-process traced run of spdc-modes CLI commands.

Run as its own process by ``run.py --trace 1``:

    python perfbench/tracer.py SPEC.json RESULT.json

SPEC holds ``{"commands": [{"name", "argv", "stdout"}], "seconds", "deadline"}``
(``deadline`` is a ``time.time()`` value). Each pass calls
``spdc_modes.cli.main(argv)`` for every command twice, once plain and once with
span-recording wrappers installed around each module's public functions, in
alternating order. Spans (name, start, end, parent, pass, command, counters)
are kept in memory and written to RESULT at the end, with the wall time of
every ``main()`` call, so the caller derives self times and tracing overhead.
Nothing in the program is modified on disk; the wrappers replace module
attributes for the duration of a traced call only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, function) -> span name; the span name's first part is the layer
SPANS: Dict[Tuple[str, str], str] = {
    ("config", "load_config"): "config.load",
    ("kernel", "build_multipeak"): "kernel.build",
    ("kernel", "build_double_gaussian"): "kernel.build",
    ("kernel", "build_from_pump"): "kernel.build",
    ("schmidt", "schmidt_decompose"): "schmidt.decompose",
    ("detection", "singles_scan"): "detection.scan",
    ("detection", "coincidence_scan"): "detection.scan",
    ("detection", "fedorov_ratio"): "detection.fedorov",
    ("detection", "wavelength_average"): "detection.wavelength_avg",
    ("detection", "gaussian_mode_log_intensities"): "detection.crosstalk",
    ("detection", "crosstalk_matrix"): "detection.crosstalk",
    ("hologram", "encode_hologram"): "hologram.encode",
    ("hologram", "simulate_first_order"): "hologram.replay",
    ("hologram", "export_pgm"): "exports.write",
    ("exports", "atomic_write_bytes"): "exports.write",
    ("exports", "atomic_write_text"): "exports.write",
    ("exports", "write_table_csv"): "exports.write",
    ("exports", "write_kernel_csv"): "exports.write",
    ("exports", "write_scan_csv"): "exports.write",
    ("exports", "write_coefficients_csv"): "exports.write",
    ("exports", "write_modes_csv"): "exports.write",
    ("exports", "write_crosstalk_csv"): "exports.write",
    ("exports", "write_field_csv"): "exports.write",
}


def _counters(qualname: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts read off a layer call's arguments and result.

    A call whose arguments or result lack the expected shape records no
    count rather than failing the traced program.
    """
    try:
        if qualname.startswith("kernel.build_"):
            return {"amp_bytes": int(result.amplitude.nbytes)}
        if qualname == "schmidt.schmidt_decompose":
            return {"modes_kept": int(result.n_modes)}
        if qualname == "detection.crosstalk_matrix":
            n = int(result.values.shape[0])
            return {"pairs": n * (n + 1) // 2}
        if qualname == "hologram.encode_hologram":
            return {"pixels": int(result.phase_levels.size)}
        if qualname == "exports.atomic_write_bytes":
            data = kwargs["data"] if "data" in kwargs else args[1]
            return {"bytes": len(data), "files": 1}
    except (AttributeError, IndexError, KeyError, TypeError):
        pass
    return {}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.pass_id = 0
        self.command = ""

    def _wrap(self, qualname: str, span_name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            span = {"name": span_name, "fn": qualname, "pass": tracer.pass_id,
                    "command": tracer.command,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            span.update(_counters(qualname, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_svd(self, fn: Callable) -> Callable:
        tracer = self

        def svd(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer._stack:
                span = tracer.spans[tracer._stack[-1]]
                if span["name"] == "schmidt.decompose":
                    s = result[1] if isinstance(result, tuple) else result
                    span["sv_computed"] = span.get("sv_computed", 0) + int(getattr(s, "size", 0))
            return result

        return svd

    def install(self) -> None:
        """Wrap every function in SPANS in every spdc_modes namespace bound to it.

        ``cli`` and ``config`` import some names directly (``config.build_multipeak``,
        ``cli.load_config``), so patching only the defining module would miss them.
        """
        import numpy.linalg

        import spdc_modes.cli  # noqa: F401  (loads every module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spdc_modes" or name.startswith("spdc_modes."))]
        for (mod_name, fn_name), span_name in SPANS.items():
            original = getattr(sys.modules[f"spdc_modes.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        self._patches.append((numpy.linalg, "svd", numpy.linalg.svd))
        numpy.linalg.svd = self._count_svd(numpy.linalg.svd)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)


def _call_main(main: Callable, argv: List[str], stdout_path: Optional[str]) -> Tuple[float, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = main(argv)
        t1 = time.perf_counter()
    if stdout_path:
        with open(stdout_path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    return t1 - t0, code


def run(spec: dict) -> dict:
    from spdc_modes import cli

    tracer = Tracer()
    calls = []
    seconds = float(spec["seconds"])
    deadline = float(spec["deadline"])
    # first calls in a process pay one-off costs (lazy imports, first LAPACK
    # use); keep them out of both the traced and the untraced timings
    for cmd in spec["commands"]:
        _call_main(cli.main, cmd["argv"], None)
    start = time.perf_counter()
    last_pass = 0.0
    pass_id = 0
    while pass_id == 0 or (time.perf_counter() - start < seconds
                           and time.time() + last_pass < deadline):
        t_pass = time.perf_counter()
        for cmd in spec["commands"]:
            order = (False, True) if pass_id % 2 == 0 else (True, False)
            for traced in order:
                tracer.pass_id, tracer.command = pass_id, cmd["name"]
                first_span = len(tracer.spans)
                if traced:
                    tracer.install()
                try:
                    wall, code = _call_main(cli.main, cmd["argv"],
                                            cmd["stdout"] if traced else None)
                finally:
                    tracer.uninstall()
                calls.append({"command": cmd["name"], "pass": pass_id, "traced": traced,
                              "wall": wall, "code": code,
                              "spans": [first_span, len(tracer.spans)]})
        last_pass = time.perf_counter() - t_pass
        pass_id += 1
    return {"spans": tracer.spans, "calls": calls, "passes": pass_id}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: tracer.py SPEC.json RESULT.json", file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    tmp = argv[1] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
