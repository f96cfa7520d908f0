"""Benchmark of the spdc-modes command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload shipped --seed 0 --seconds 13 --trace 0

Closed loop, one client: the driver starts one ``python -m spdc_modes.cli``
process at a time, from the sources in ``src/``, and waits for it before the
next. BLAS keeps its default thread count, which is recorded. A run

1. writes the workload's configs from the shipped ones with ``--seed``
   (``workloads.py``), then runs one untimed warm-up pass over the workload's
   commands (together: ``setup_s``);
2. with ``--trace 0`` starts timed passes while less than ``--seconds`` have
   elapsed (at least one pass) and reports end-to-end metrics;
   with ``--trace 1`` measures import times with ``-X importtime`` and runs
   ``tracer.py``, which calls ``spdc_modes.cli.main`` in-process with span
   wrappers around each module, and reports per-layer metrics;
3. checks every output (exit code, files present, data files byte-identical
   to the warm-up pass, closed-form oracles) and counts failures.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a report with every per-command and
per-layer figure, the seed, config hashes and the environment. The same
record is written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_BUDGET_S = 170.0
IMPORT_PROBES = 3

# per-layer metrics emitted by --trace 1, with units
PER_LAYER_UNITS = {
    "import.interpreter_s": "s", "import.spdc_modes_s": "s", "import.scipy_s": "s",
    "config.load_s": "s",
    "kernel.build_s": "s", "kernel.builds": "count", "kernel.amp_bytes": "B",
    "schmidt.decompose_s": "s", "schmidt.calls": "count", "schmidt.modes_kept": "count",
    "schmidt.kept_ratio": "ratio",
    "detection.scan_s": "s", "detection.fedorov_s": "s", "detection.crosstalk_pairs": "count",
    "hologram.pixels": "count",
    "exports.write_s": "s", "exports.bytes": "B", "exports.files": "count",
    "exports.write_mbps": "MB/s",
    "cli.other_s": "s", "trace.overhead_s": "s",
}
# layers that some workloads never enter; their times are reported, not emitted
REPORT_ONLY_UNITS = {
    "detection.wavelength_avg_self_s": "s", "detection.crosstalk_s": "s",
    "hologram.encode_s": "s", "hologram.replay_s": "s",
    "trace.traced_s": "s", "trace.untraced_s": "s",
}
# end-to-end metrics emitted by --trace 0: those every workload produces and
# that stay within their bounds from run to run; per-command times go to the
# report
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
_SPAN_METRIC = {"detection.wavelength_avg": "detection.wavelength_avg_self_s"}
_SPAN_COUNTERS = {"amp_bytes": "kernel.amp_bytes", "modes_kept": "schmidt.modes_kept",
                  "sv_computed": "schmidt.sv_computed", "pairs": "detection.crosstalk_pairs",
                  "pixels": "hologram.pixels", "bytes": "exports.bytes",
                  "files": "exports.files"}
_SPAN_CALLS = {"kernel.build": "kernel.builds", "schmidt.decompose": "schmidt.calls"}

_ENV_PROBE = r"""
import ctypes, json, os, platform
import numpy, scipy
info = {"python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0))}
blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
info["blas"] = f"{blas.get('name')} {blas.get('version')}"
# thread count of every BLAS library loaded into the process
info["blas_threads"] = {}
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "blas" in line.split()[-1]})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.restype = ctypes.c_int
            info["blas_threads"][os.path.basename(path)] = fn()
            break
print(json.dumps(info))
"""


class RunClock:
    """Deadline for the whole run; children are killed when it passes."""

    def __init__(self, budget_s: float):
        self.deadline = time.time() + budget_s

    def remaining(self) -> float:
        return self.deadline - time.time()


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: List[str], stdout_path: str, stderr_path: str, cwd: str,
                clock: RunClock) -> dict:
    """Run one child to completion: wall time, exit code and max RSS."""
    timeout = clock.remaining()
    if timeout <= 0:
        return {"wall": 0.0, "code": None, "rss_kb": 0, "timed_out": True}
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=_child_env())

        def kill(_signum, _frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        t1 = time.perf_counter()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return {"wall": t1 - t0, "code": code, "rss_kb": usage.ru_maxrss,
            "timed_out": code == -signal.SIGKILL}


class Bench:
    """State of one benchmark run: workload, generated configs, reference hashes."""

    def __init__(self, workload: wl.Workload, seed: int, work_dir: str, clock: RunClock):
        self.workload = workload
        self.seed = seed
        self.work = work_dir
        self.clock = clock
        self.configs: Dict[str, dict] = {}
        self.reference: Dict[str, Dict[str, str]] = {}
        self.attempted = 0
        self.failures: List[str] = []   # one message per failed attempt
        self.notes: List[str] = []      # figures the run could not measure

    def out_dir(self, cmd: wl.Command) -> str:
        return os.path.join(self.work, "out", cmd.name)

    def argv(self, cmd: wl.Command) -> List[str]:
        return [cmd.subcommand, "--config", self.configs[cmd.config]["path"],
                "--out", self.out_dir(cmd), *cmd.flags]

    def generate(self, mutate: Optional[Callable[[str, dict], None]]) -> None:
        self.configs = wl.write_configs(self.workload, os.path.join(ROOT, "configs"),
                                        os.path.join(self.work, "configs"), self.seed, mutate)

    def check(self, cmd: wl.Command, code: Optional[int], stdout_path: str,
              label: str) -> None:
        """Count one attempt; record why it failed, if it did."""
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            with open(stdout_path, "r", encoding="utf-8", errors="replace") as fh:
                stdout = fh.read()
            out_dir = self.out_dir(cmd)
            problems = wl.check_output(cmd, self.configs[cmd.config]["data"], out_dir, stdout)
            hashes = wl.data_file_hashes(cmd, out_dir)
            if cmd.name not in self.reference:
                self.reference[cmd.name] = hashes
            elif hashes != self.reference[cmd.name]:
                problems.append("data files differ from the warm-up pass")
        if problems:
            self.failures.append(f"{label} {cmd.name}: " + "; ".join(problems))

    def run_pass(self, label: str) -> dict:
        """One timed pass of processes, checked after the clock stops."""
        records = []
        t0 = time.perf_counter()
        for cmd in self.workload.commands:
            base = os.path.join(self.work, "logs", f"{label}-{cmd.name}")
            rec = run_process([sys.executable, "-m", "spdc_modes.cli", *self.argv(cmd)],
                              base + ".stdout", base + ".stderr", self.work, self.clock)
            records.append((cmd, rec, base + ".stdout"))
        wall = time.perf_counter() - t0
        for cmd, rec, stdout_path in records:
            self.check(cmd, rec["code"], stdout_path, label)
        return {"pass_s": wall,
                "timed_out": any(rec["timed_out"] for _, rec, _ in records),
                "commands": {cmd.name: rec["wall"] for cmd, rec, _ in records},
                "rss_kb": max(rec["rss_kb"] for _, rec, _ in records)}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        last = passes[-1]["pass_s"] if passes else 0.0
        if passes and bench.clock.remaining() < 1.5 * last + 5.0:
            break
        result = bench.run_pass(f"pass{len(passes)}")
        if result["timed_out"]:
            break
        passes.append(result)
    report = {"samples": len(passes),
              "pass_s": _median([p["pass_s"] for p in passes]),
              "peak_rss_mb": max((p["rss_kb"] for p in passes), default=0) * 1024 / 1e6}
    for cmd in bench.workload.commands:
        report[f"{cmd.name}_s"] = _median([p["commands"][cmd.name] for p in passes])
    return report


def _parse_importtime(text: str) -> Dict[str, float]:
    """Cumulative seconds of the outermost spdc_modes* and scipy* imports."""
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    totals = {"spdc_modes": 0.0, "scipy": 0.0}
    stack: List[tuple] = []
    # importtime prints children before their parent; reversed, each entry's
    # ancestors are exactly the stack entries of smaller depth
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and not any(a[1].split(".")[0] == root for a in stack):
            totals[root] += cumulative
        stack.append((depth, name))
    return totals


def measure_imports(bench: Bench) -> dict:
    interp, spdc, scipy_t = [], [], []
    logs = os.path.join(bench.work, "logs")
    for i in range(IMPORT_PROBES):
        rec = run_process([sys.executable, "-c", "pass"], os.path.join(logs, "probe.stdout"),
                          os.path.join(logs, "probe.stderr"), bench.work, bench.clock)
        interp.append(rec["wall"])
        err = os.path.join(logs, f"importtime{i}.stderr")
        rec = run_process([sys.executable, "-X", "importtime", "-c", "import spdc_modes.cli"],
                          os.path.join(logs, "probe.stdout"), err, bench.work, bench.clock)
        bench.attempted += 1
        if rec["code"] != 0:
            bench.failures.append(f"import probe: exit code {rec['code']}")
            continue
        with open(err, "r", encoding="utf-8") as fh:
            totals = _parse_importtime(fh.read())
        spdc.append(totals["spdc_modes"])
        scipy_t.append(totals["scipy"])
    return {"import.interpreter_s": _median(interp), "import.spdc_modes_s": _median(spdc),
            "import.scipy_s": _median(scipy_t)}


def layer_metrics(result: dict) -> Dict[str, float]:
    """Per-pass medians of layer self times and counts.

    A span's self time is its duration minus its children's; the part of each
    traced ``main()`` call outside every top-level span is ``cli.other_s``.
    Summed over a call, self times telescope to the top-level span time, so
    the layer self times plus ``cli.other_s`` equal the call's time by
    construction.
    """
    spans = result["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    passes: Dict[int, Dict[str, float]] = {}
    for call in result["calls"]:
        acc = passes.setdefault(call["pass"], {})
        key = "trace.traced_s" if call["traced"] else "trace.untraced_s"
        acc[key] = acc.get(key, 0.0) + call["wall"]
        top = 0.0
        for i in range(*call["spans"]):
            span = spans[i]
            duration = span["end"] - span["start"]
            self_time = duration - child_time[i]
            metric = _SPAN_METRIC.get(span["name"], span["name"] + "_s")
            acc[metric] = acc.get(metric, 0.0) + self_time
            if span["parent"] is None:
                top += duration
            if span["name"] in _SPAN_CALLS:
                name = _SPAN_CALLS[span["name"]]
                acc[name] = acc.get(name, 0) + 1
            for counter, name in _SPAN_COUNTERS.items():
                if counter in span:
                    acc[name] = acc.get(name, 0) + span[counter]
        if call["traced"]:
            acc["cli.other_s"] = acc.get("cli.other_s", 0.0) + call["wall"] - top
    for acc in passes.values():
        acc["trace.overhead_s"] = acc.get("trace.traced_s", 0.0) - acc.get("trace.untraced_s", 0.0)
        # over the singular values seen in numpy.linalg.svd; 0 when none was
        # seen, since another decomposition routine is not measured
        computed = acc.get("schmidt.sv_computed", 0)
        acc["schmidt.kept_ratio"] = acc.get("schmidt.modes_kept", 0) / computed if computed else 0.0
        write_s = acc.get("exports.write_s", 0.0)
        acc["exports.write_mbps"] = acc.get("exports.bytes", 0) / write_s / 1e6 if write_s else 0.0
    names = set(PER_LAYER_UNITS) | set(REPORT_ONLY_UNITS)
    metrics = {name: _median([acc.get(name, 0) for acc in passes.values()]) if passes else 0.0
               for name in names if not name.startswith("import.")}
    return metrics


def measure_layers(bench: Bench, seconds: float) -> dict:
    metrics = measure_imports(bench)
    spec_path = os.path.join(bench.work, "trace_spec.json")
    # the spans outlive the run, next to its results record
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_path = os.path.join(WORK, "results",
                               f"{bench.workload.name}-seed{bench.seed}-trace1-spans.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    commands = [{"name": cmd.name, "argv": bench.argv(cmd),
                 "stdout": os.path.join(bench.work, "logs", f"traced-{cmd.name}.stdout")}
                for cmd in bench.workload.commands]
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "seconds": seconds,
                   "deadline": bench.clock.deadline - 5.0}, fh)
    logs = os.path.join(bench.work, "logs")
    rec = run_process([sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"),
                       spec_path, result_path],
                      os.path.join(logs, "tracer.stdout"), os.path.join(logs, "tracer.stderr"),
                      bench.work, bench.clock)
    if rec["code"] != 0 or not os.path.isfile(result_path):
        bench.attempted += 1
        bench.failures.append(f"tracer: exit code {rec['code']}")
        return {**metrics, "samples": 0}
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    # every main() call is an attempt; the outputs left by the last traced
    # call of each command get the full check
    last_traced = {call["command"]: call for call in result["calls"] if call["traced"]}
    for call in result["calls"]:
        if call is last_traced[call["command"]]:
            continue
        bench.attempted += 1
        if call["code"] != 0:
            bench.failures.append(f"traced pass {call['pass']} {call['command']}: "
                                  f"exit code {call['code']}")
    for cmd, spec in zip(bench.workload.commands, commands):
        bench.check(cmd, last_traced[cmd.name]["code"], spec["stdout"], "traced")
    layers = layer_metrics(result)
    if layers["schmidt.modes_kept"] and not layers["schmidt.kept_ratio"]:
        bench.notes.append("schmidt.kept_ratio not measured: schmidt_decompose kept modes "
                           "without calling numpy.linalg.svd")
    return {**metrics, **layers, "samples": result["passes"]}


def _steal_s() -> float:
    """CPU time the host took from this machine so far (0 where not reported)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment(bench: Bench) -> dict:
    logs = os.path.join(bench.work, "logs")
    out = os.path.join(logs, "env.stdout")
    rec = run_process([sys.executable, "-c", _ENV_PROBE], out,
                      os.path.join(logs, "env.stderr"), bench.work, bench.clock)
    if rec["code"] != 0:
        return {"error": f"environment probe exit code {rec['code']}"}
    with open(out, "r", encoding="utf-8") as fh:
        info = json.loads(fh.read().strip().splitlines()[-1])
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    info["OMP_NUM_THREADS"] = os.environ.get("OMP_NUM_THREADS")
    return info


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()
            if name in values}


def run(args, mutate: Optional[Callable[[str, dict], None]] = None) -> dict:
    """One benchmark run; returns the report, whose "result" is the last line."""
    clock = RunClock(RUN_BUDGET_S)
    steal0 = _steal_s()
    workload = wl.WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "logs"))
    bench = Bench(workload, args.seed, work, clock)
    try:
        t0 = time.perf_counter()
        bench.generate(mutate)
        setup_s = time.perf_counter() - t0 + bench.run_pass("warmup")["pass_s"]
        if args.trace:
            measured = measure_layers(bench, args.seconds)
            emitted = PER_LAYER_UNITS
        else:
            measured = measure_end_to_end(bench, args.seconds)
            emitted = END_TO_END_UNITS
        measured["setup_s"] = setup_s
        env = environment(bench)
        env["host_steal_s"] = _steal_s() - steal0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(bench.failures)
    attempted = max(bench.attempted, 1)
    all_units = {**END_TO_END_UNITS, **PER_LAYER_UNITS, **REPORT_ONLY_UNITS,
                 **{f"{c.name}_s": "s" for c in workload.commands}}
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "configs": {name: c["sha256"] for name, c in bench.configs.items()},
        "commands": [" ".join(["spdc-modes", c.subcommand, f"<{c.config}>", *c.flags])
                     for c in workload.commands],
        "samples": measured.get("samples", 0),
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "failures": bench.failures[:20],
        "notes": bench.notes,
        "metrics": _with_units(measured, all_units),
        "environment": env,
    }
    report["result"] = {
        "correct": failed == 0, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured.get(name, 0.0), "unit": unit}
                    for name, unit in emitted.items()},
    }
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        print("perfbench: --seed and --seconds must be non-negative", file=sys.stderr)
        return 2
    if not (os.path.isfile(os.path.join(ROOT, "src", "spdc_modes", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        print(f"perfbench: {ROOT} holds no src/spdc_modes or configs/ to benchmark",
              file=sys.stderr)
        return 2
    report = run(args)
    result = report.pop("result")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = os.path.join(WORK, "results",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({**report, "result": result}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
