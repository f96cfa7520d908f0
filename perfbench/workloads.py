"""Workload definitions, the seeded config generator and the output checks.

Every workload is a list of CLI commands run against configs generated from
the shipped ``configs/*.yaml``. Seed 0 reproduces the shipped physics values
exactly; any other seed jitters the continuous pump parameters by at most
JITTER (relative), which keeps every config valid and leaves grid sizes and
peak counts, and so the amount of work, unchanged.

The checks hold for any correct implementation: they compare against closed
forms computed here, independently of the program, never against recorded
outputs of one version.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import yaml

JITTER = 0.02
JITTERED_KEYS = ("envelope_fwhm_um", "peak_spacing_um_inv", "side_amplitude",
                 "matching_width")

# schmidt_decompose's default truncation: weight target and mode cap
MODE_WEIGHT_TARGET = 1.0 - 1e-6
MODE_CAP = 64

GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

TPA_NORM_TOL = 1e-9
SCHMIDT_WEIGHT_TOL = 1e-9
FEDOROV_REL_TOL = 0.005
HOLOGRAM_MIN_OVERLAP = 0.99
HEIGHT_RATIO_REL_TOL = 0.005

# files each subcommand must leave non-empty in its output directory
# (besides <subcommand>.log); all of them are data files, which the README
# promises are byte-identical across reruns
DATA_FILES = {
    "tpa": ("kernel.csv", "kernel.meta.yaml"),
    "schmidt": ("schmidt_coefficients.csv", "signal_modes.csv", "idler_modes.csv"),
    "scan": ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv"),
    "fedorov": (),
    "crosstalk": ("crosstalk.csv",),
    "pump": ("pump_field.csv",),
    "hologram": ("hologram.pgm",),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``name`` is the stem of its ``<name>_s`` metric."""

    name: str
    subcommand: str
    config: str
    flags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ConfigSpec:
    """A generated config: a shipped file plus fixed overrides per section."""

    base: str
    overrides: Tuple[Tuple[str, dict], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Dict[str, ConfigSpec]
    commands: Tuple[Command, ...]


_SHIPPED = {name: ConfigSpec(f"{name}.yaml")
            for name in ("single_mode", "three_modes", "crosstalk", "hologram")}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "shipped",
            "the README commands at 512 points: start-up, imports and the "
            "kernel.csv export dominate, so import and export gains show here "
            "and SVD gains barely move it",
            _SHIPPED,
            (
                Command("tpa", "tpa", "single_mode"),
                Command("schmidt", "schmidt", "single_mode"),
                Command("scan", "scan", "three_modes", ("--zero-width-slits",)),
                Command("scan_avg", "scan", "three_modes", ("--wavelength-avg",)),
                Command("fedorov", "fedorov", "single_mode", ("--zero-width-slits",)),
                Command("crosstalk", "crosstalk", "crosstalk"),
                Command("pump", "pump", "three_modes"),
                Command("hologram", "hologram", "hologram"),
            ),
        ),
        Workload(
            "fine-grid",
            "three_modes at 2048 points: the dense SVD and the 21 kernel "
            "rebuilds of the filter average dominate and imports are under "
            "10%, so Schmidt and kernel gains show here and import gains do not",
            {"three_modes": ConfigSpec("three_modes.yaml", (("grid", {"points": 2048}),))},
            (
                Command("schmidt", "schmidt", "three_modes"),
                Command("scan_avg", "scan", "three_modes", ("--wavelength-avg",)),
                Command("fedorov", "fedorov", "three_modes", ("--zero-width-slits",)),
            ),
        ),
        Workload(
            "many-modes",
            "Schmidt number ~10 at 2048 points with all 64 capped modes kept, "
            "wide mode tables and a 64-peak crosstalk: a low-rank SVD that "
            "wins on fine-grid must not lose here",
            {
                "double_gaussian": ConfigSpec("single_mode.yaml", (
                    ("pump", {"peaks": 1, "envelope_fwhm_um": 246.0,
                              "matching_width": 0.19}),
                    ("grid", {"points": 2048}),
                )),
                "comb64": ConfigSpec("crosstalk.yaml", (
                    ("pump", {"peaks": 64, "peak_spacing_um_inv": 0.12,
                              "envelope_fwhm_um": 100.0,
                              "matching_width": "derived"}),
                    ("grid", {"points": 2048, "span_sigmas": 8.0}),
                )),
            },
            (
                Command("schmidt", "schmidt", "double_gaussian"),
                Command("fedorov", "fedorov", "double_gaussian", ("--zero-width-slits",)),
                Command("crosstalk", "crosstalk", "comb64"),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# config generation
# ---------------------------------------------------------------------------

def _jitter(value: float, seed: int, tag: str) -> float:
    if seed == 0:
        return value
    u = random.Random(f"{seed}:{tag}").uniform(-1.0, 1.0)
    return float(f"{value * (1.0 + JITTER * u):.9g}")


def generate_config(spec: ConfigSpec, configs_dir: str, seed: int, tag: str) -> dict:
    """Config mapping for one spec: shipped file, overrides, then seeded jitter."""
    with open(os.path.join(configs_dir, spec.base), "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    for section, values in spec.overrides:
        if section == "pump":
            data[section] = dict(values)
        else:
            data.setdefault(section, {}).update(values)
    pump = data["pump"]
    for key in JITTERED_KEYS:
        value = pump.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            pump[key] = _jitter(float(value), seed, f"{tag}:{key}")
    if not 0.0 < pump.get("side_amplitude", 1.0) <= 1.0:
        raise ValueError(f"{tag}: generated side_amplitude left (0, 1]")
    return data


def write_configs(workload: Workload, configs_dir: str, out_dir: str, seed: int,
                  mutate: Optional[Callable[[str, dict], None]] = None) -> Dict[str, dict]:
    """Write the workload's configs as YAML; returns name -> {path, data, sha256}.

    ``mutate(name, data)`` edits a generated mapping before it is written
    (the smoke test uses it to coarsen the grid and to plant an invalid config).
    """
    os.makedirs(out_dir, exist_ok=True)
    result = {}
    for name, spec in sorted(workload.configs.items()):
        data = generate_config(spec, configs_dir, seed, f"{workload.name}:{name}")
        if mutate is not None:
            mutate(name, data)
        text = yaml.safe_dump(data, sort_keys=True).encode("utf-8")
        path = os.path.join(out_dir, f"{name}.yaml")
        with open(path, "wb") as fh:
            fh.write(text)
        result[name] = {"path": path, "data": data,
                        "sha256": hashlib.sha256(text).hexdigest()}
    return result


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _double_gaussian_widths(data: dict) -> Optional[Tuple[float, float]]:
    """(sigma_pump, sigma_match) of a single-peak config with a known match width."""
    pump = data.get("pump", {})
    if pump.get("peaks", 1) != 1 or "envelope_fwhm_um" not in pump:
        return None
    a = GAUSSIAN_FWHM_FACTOR / pump["envelope_fwhm_um"]
    match = pump.get("matching_width", "derived")
    if match == "equal":
        return a, a
    if isinstance(match, (int, float)) and not isinstance(match, bool):
        return a, float(match)
    return None


def schmidt_number(a: float, b: float) -> float:
    return (a * a + b * b) / (2.0 * a * b)


def schmidt_weights(a: float, b: float) -> List[float]:
    """Closed-form weights kept under the default truncation, descending."""
    mu = ((b - a) / (b + a)) ** 2
    weights, total = [], 0.0
    while len(weights) < MODE_CAP and total < MODE_WEIGHT_TARGET:
        weights.append((1.0 - mu) * mu ** len(weights))
        total += weights[-1]
    return weights


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _number_after(label: str, text: str) -> float:
    match = re.search(re.escape(label) + r"\s*=?\s*([-+0-9.eE]+)", text)
    if match is None:
        raise ValueError(f"no '{label}' line in the output")
    return float(match.group(1))


def _read_weights(path: str) -> List[float]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("weight")
    return [float(r[col]) for r in rows[1:]]


def check_output(cmd: Command, config: dict, out_dir: str, stdout: str) -> List[str]:
    """Problems with one command's outputs; an empty list means it passed."""
    problems = []
    for fname in DATA_FILES[cmd.subcommand] + (f"{cmd.subcommand}.log",):
        path = os.path.join(out_dir, fname)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append(f"missing or empty {fname}")
    if problems:
        return problems
    widths = _double_gaussian_widths(config)
    try:
        if cmd.subcommand == "tpa":
            norm = _number_after("norm check:", stdout)
            if abs(norm - 1.0) > TPA_NORM_TOL:
                problems.append(f"kernel norm {norm!r} is not 1 within {TPA_NORM_TOL}")
        elif cmd.subcommand == "schmidt" and widths is not None:
            expected = schmidt_weights(*widths)
            got = _read_weights(os.path.join(out_dir, "schmidt_coefficients.csv"))
            if len(got) != len(expected):
                problems.append(f"{len(got)} Schmidt modes kept, closed form keeps "
                                f"{len(expected)}")
            else:
                worst = max(abs(g - e) for g, e in zip(got, expected))
                if worst > SCHMIDT_WEIGHT_TOL:
                    problems.append(f"Schmidt weights differ from the closed form by {worst:.3e}")
        elif cmd.subcommand == "fedorov" and widths is not None and "--zero-width-slits" in cmd.flags:
            ratio = _number_after("width ratio (unconditional / conditional)", stdout)
            k = schmidt_number(*widths)
            if abs(ratio / k - 1.0) > FEDOROV_REL_TOL:
                problems.append(f"Fedorov ratio {ratio:.6g} vs Schmidt number {k:.6g}")
        elif cmd.subcommand == "hologram":
            overlap = _number_after("round-trip amplitude overlap", stdout)
            if overlap < HOLOGRAM_MIN_OVERLAP:
                problems.append(f"hologram round-trip overlap {overlap:.6g} "
                                f"< {HOLOGRAM_MIN_OVERLAP}")
        elif cmd.subcommand == "scan" and config["pump"].get("peaks") == 3:
            side = config["pump"].get("side_amplitude")
            if side is not None:
                ratio = _number_after("height ratio brightest/second", stdout)
                expected_ratio = 1.0 / (side * side)
                if abs(ratio / expected_ratio - 1.0) > HEIGHT_RATIO_REL_TOL:
                    problems.append(f"three-mode height ratio {ratio:.6g} vs "
                                    f"(1/side_amplitude)^2 = {expected_ratio:.6g}")
    except (ValueError, IndexError) as exc:
        problems.append(str(exc))
    return problems


def data_file_hashes(cmd: Command, out_dir: str) -> Dict[str, str]:
    hashes = {}
    for fname in DATA_FILES[cmd.subcommand]:
        h = hashlib.sha256()
        try:
            with open(os.path.join(out_dir, fname), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        except OSError:
            continue
        hashes[fname] = h.hexdigest()
    return hashes
