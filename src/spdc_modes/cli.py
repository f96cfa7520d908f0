"""Command-line front end: config-driven pipelines with CSV/PGM outputs.

Exit codes: 0 success, 2 configuration problem, 3 computation failure,
4 output I/O failure. Outputs are deterministic: identical config and
flags produce byte-identical files; run metadata (parameter provenance,
derived constants, summary numbers) goes to <out>/<subcommand>.log, never
into the data files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import detection, exports, hologram, schmidt
from .config import ConfigError, RunConfig, load_config
from .optics import sigma_k_to_fwhm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4

_EPILOG = """\
exit codes:
  0  success
  2  configuration problem (bad file, unknown or invalid keys, inconsistent values)
  3  computation failure (parameters outside a model's reach, or out of memory)
  4  output I/O failure
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdc-modes",
        description="Biphoton angular-spectrum toolkit: kernels, mode "
                    "decompositions, slit scans, and pump holograms.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, (help_text, _handler, extra) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, epilog=_EPILOG,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for flag, options in _COMMON_ARGUMENTS + extra:
            p.add_argument(flag, **options)
    return parser


def _constants_lines(cfg: RunConfig) -> List[str]:
    pump = cfg.pump
    lines = [
        f"derived: pump angular-spectrum width sigma = {pump.widths.sigma_pump:.10g} 1/um",
        f"derived: phase-matching width sigma' = {pump.widths.sigma_match:.10g} 1/um",
        f"derived: branch offset = {pump.noncollinear_offset:.10g} 1/um",
    ]
    if cfg.emission_angle_rad is not None:
        lines.append("derived: internal emission angle = "
                     f"{math.degrees(cfg.emission_angle_rad):.6g} deg")
    return lines


def _widths(lines: Iterable[str]) -> List[str]:
    """The lines ``lines`` yields, ended by a skip line at the first width
    that cannot be read: a width summarises the data, it is not the data."""
    kept = []
    try:
        for line in lines:
            kept.append(line)
    except ValueError as exc:
        kept.append(f"width extraction skipped: {exc}")
    return kept


# Each handler computes and returns (result lines, the computed object's
# warnings, {file name: (writer, *data)}); main writes the files in order,
# and only once the handler has returned.
Outcome = Tuple[List[str], Sequence[str], Dict[str, tuple]]


def _cmd_tpa(cfg: RunConfig, args) -> Outcome:
    kernel = cfg.build_kernel()
    return [
        f"signal grid: [{kernel.grid_s.k_min:.10g}, {kernel.grid_s.k_max:.10g}] "
        f"x {kernel.grid_s.n_points}",
        f"idler grid: [{kernel.grid_i.k_min:.10g}, {kernel.grid_i.k_max:.10g}] "
        f"x {kernel.grid_i.n_points}",
        f"norm check: {kernel.norm():.12f}",
    ], kernel.warnings, {"kernel.csv": (exports.write_kernel_csv, kernel)}


def _cmd_schmidt(cfg: RunConfig, args) -> Outcome:
    kernel = cfg.build_kernel()
    dec = schmidt.schmidt_decompose(kernel)
    metrics = schmidt.schmidt_number(dec)
    lines = [
        f"modes kept: {dec.n_modes}",
        f"leading coefficient c1 = {dec.coefficients[0]:.12f} (weight {dec.coefficients[0] ** 2:.12f})",
        f"mode count (participation) = {metrics.schmidt_number:.10f}",
        f"purity = {metrics.purity:.10f}",
        f"entropy = {metrics.entropy_bits:.10f} bits",
        f"discarded weight = {dec.discarded_weight:.3e}",
    ]
    params = cfg.pump
    if params.n_peaks > 1:
        centers = params.signal_centers()
        if cfg.branch == "both":
            centers = np.concatenate([centers, centers - params.noncollinear_offset])
        leak = schmidt.largest_window_leak(dec, centers, params.peak_spacing)
        lines.append(f"largest mode share outside its peak window = {leak:.3e}")
    return lines, dec.warnings, {
        "schmidt_coefficients.csv": (exports.write_coefficients_csv, dec),
        "signal_modes.csv": (exports.write_modes_csv, dec.grid_s.points(), dec.signal_modes),
        "idler_modes.csv": (exports.write_modes_csv, dec.grid_i.points(), dec.idler_modes),
    }


def _cmd_scan(cfg: RunConfig, args) -> Outcome:
    geom = cfg.geometry
    zero = args.zero_width_slits
    lines = []

    if args.wavelength_avg:
        inten = detection.wavelength_average(cfg.phase_match, geom, cfg.pump,
                                             *cfg.grids(), cfg.branch)
        lines.append("intensity averaged over the spectral filter passband "
                     f"({detection.FILTER_SAMPLES} samples)")
    else:
        inten = cfg.build_kernel().intensity()

    singles_s = detection.singles_scan(inten, geom, "signal", zero_width=zero)
    singles_i = detection.singles_scan(inten, geom, "idler", zero_width=zero)
    center = args.idler_center
    if center is None:
        center = detection.idler_peak_center(inten)
    coinc = detection.coincidence_scan(inten, geom, center, zero_width=zero)

    lines.append(f"idler slit center = {center:.10g} 1/um")
    peaks, heights = detection.find_peaks(singles_s)
    lines.append("signal singles peaks (1/um): "
                 + ", ".join(f"{p:.6g}" for p in peaks))
    if peaks.size > 1:
        lines.append("peak spacings (1/um): "
                     + ", ".join(f"{d:.6g}" for d in np.diff(np.sort(peaks))))
        order = np.argsort(heights)[::-1]
        lines.append(f"height ratio brightest/second = {heights[order[0]] / heights[order[1]]:.6g}")
    else:
        lines += _widths(f"{label} FWHM = {detection.fwhm_of(scan):.10g} 1/um"
                         for label, scan in (("signal singles", singles_s), ("coincidence", coinc)))
    return lines, inten.warnings, {
        f"{name}.csv": (exports.write_scan_csv, spectrum)
        for name, spectrum in (("singles_signal", singles_s), ("singles_idler", singles_i),
                               ("coincidence_signal", coinc))
    }


def _cmd_fedorov(cfg: RunConfig, args) -> Outcome:
    inten = cfg.build_kernel().intensity()
    ratio = detection.fedorov_ratio(inten, cfg.geometry, zero_width=args.zero_width_slits)
    return [f"width ratio (unconditional / conditional) = {ratio:.10f}"], inten.warnings, {}


def _cmd_crosstalk(cfg: RunConfig, args) -> Outcome:
    params = cfg.pump
    if params.n_peaks < 2:
        raise ValueError("crosstalk needs at least 2 pump peaks; set pump.peaks >= 2")
    grid_s, _ = cfg.grids()
    scale = schmidt.analytic_double_gaussian(params.widths).mode_scale
    centers = params.signal_centers()
    log_modes = detection.gaussian_mode_log_intensities(centers, scale, grid_s)
    matrix = detection.crosstalk_matrix(log_modes, grid_s, log_input=True)
    off = ~np.eye(matrix.values.shape[0], dtype=bool)
    return ["mode centers (1/um): " + ", ".join(f"{c:.6g}" for c in centers),
            f"fundamental mode scale = {scale:.10g} 1/um",
            f"largest off-diagonal log10 = {matrix.log10()[off].max():.6g}",
            ], (), {"crosstalk.csv": (exports.write_crosstalk_csv, matrix)}


def _cmd_pump(cfg: RunConfig, args) -> Outcome:
    params = cfg.pump
    span = 4.5 / params.widths.sigma_pump
    x = np.linspace(-span, span, 4096)
    profile = hologram.pump_field(params, x)
    split = params.peak_spacing if params.n_peaks > 1 else None
    lines = _widths(f"envelope FWHM = {hologram.envelope_fwhm(field, split):.10g} um"
                    for field in (profile,))
    return lines, (), {"pump_field.csv": (exports.write_field_csv, profile)}


def _cmd_hologram(cfg: RunConfig, args) -> Outcome:
    params = cfg.pump
    hs = cfg.hologram
    x_slm = hs.pixel_coordinates()
    crystal = hologram.pump_field(params, x_slm / hs.magnification)
    target = hologram.FieldProfile1D(x_slm, crystal.amplitude)
    holo = hologram.encode_hologram(target, hs)

    recovered = hologram.simulate_first_order(holo)
    # comb lines sit at multiples of 2*spacing in the crystal plane; demagnified
    # onto the SLM the first one lands at 2*spacing/mag, so split halfway below it
    split = params.peak_spacing / hs.magnification if params.n_peaks > 1 else None

    def recovered_widths():
        env_slm = hologram.envelope_fwhm(recovered, split)
        yield f"recovered envelope FWHM (SLM plane) = {env_slm:.10g} um"
        yield f"recovered envelope FWHM (crystal plane) = {env_slm / hs.magnification:.10g} um"

    return [
        f"raster: {hs.width_px} x {hs.height_px} px at {hs.pixel_pitch_um} um pitch, "
        f"grating period {hs.grating_period_px} px",
        f"magnification crystal->SLM = {hs.magnification}",
        f"round-trip amplitude overlap = {hologram.amplitude_overlap(target, recovered):.8f}",
        f"complex field overlap = {hologram.field_overlap(target, recovered):.8f}",
        *_widths(recovered_widths()),
        f"target envelope FWHM (crystal plane) = {sigma_k_to_fwhm(params.widths.sigma_pump):.10g} um",
    ], (), {"hologram.pgm": (hologram.export_pgm, holo)}


_ZERO_WIDTH = ("--zero-width-slits", dict(
    action="store_true", help="ideal zero-width slits (exact marginal / conditional slice)"))
_COMMON_ARGUMENTS = (
    ("--config", dict(required=True, metavar="PATH", help="YAML run configuration")),
    ("--out", dict(metavar="DIR", default=None,
                   help="output directory (overrides output.directory)")),
    ("--grid-points", dict(type=int, default=None, metavar="N", help="override grid.points")),
    ("--both-branches", dict(
        action="store_true", default=None,
        help="include both emission branches (overrides grid.both_branches)")),
)
# flag destination -> the config key it sets; a flag left at None leaves the key to the file
_FLAG_KEYS = {"grid_points": "grid.points", "both_branches": "grid.both_branches",
              "out": "output.directory"}
# name: (help line, handler, arguments beyond the common ones)
_COMMANDS = {
    "tpa": ("build the joint amplitude and export it", _cmd_tpa, ()),
    "schmidt": ("mode decomposition: coefficients and profiles", _cmd_schmidt, ()),
    "scan": ("slit-scanned singles and coincidence spectra", _cmd_scan, (
        ("--idler-center", dict(
            type=float, default=None, metavar="K",
            help="fixed idler slit center in 1/um (default: idler marginal peak)")),
        ("--wavelength-avg", dict(
            action="store_true", help="average the intensity over the spectral filter passband")),
        _ZERO_WIDTH,
    )),
    "fedorov": ("unconditional/conditional width ratio", _cmd_fedorov, (_ZERO_WIDTH,)),
    "crosstalk": ("pairwise mode intensity-overlap matrix", _cmd_crosstalk, ()),
    "pump": ("crystal-plane structured pump field", _cmd_pump, ()),
    "hologram": ("encode the pump into an SLM phase raster", _cmd_hologram, ()),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {key: getattr(args, dest) for dest, key in _FLAG_KEYS.items()
                 if getattr(args, dest) is not None}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = cfg.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO

    # numpy floating-point warnings would reach stderr ahead of the one-line
    # error; record them instead, and report them as result lines on success
    try:
        with warnings.catch_warnings(record=True) as caught:
            lines, warns, outputs = _COMMANDS[args.command][1](cfg, args)
            paths = [os.path.join(out_dir, name) for name in outputs]
            for path, (writer, *data) in zip(paths, outputs.values()):
                writer(path, *data)
    except ValueError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ArithmeticError as exc:
        print(f"computation error: {type(exc).__name__} {exc}; "
              "the parameters are outside the model's numerical range", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError:
        n = cfg.grid_points
        print(f"computation error: out of memory with {n} x {n} grid points; "
              "lower grid.points", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO
    result_lines = (_constants_lines(cfg) + lines
                    + [f"warning: {w}" for w in warns]
                    + [f"wrote {p}" for p in paths]
                    + [f"warning: {m}" for m in dict.fromkeys(str(w.message) for w in caught)])

    log_lines = [f"command: {args.command}", f"config: {args.config}"]
    log_lines += [f"cli override: {key} = {'true' if value is True else value}"
                  for key, value in overrides.items()]
    log_lines.append("-- parameters (provenance) --")
    log_lines += cfg.provenance_lines()
    log_lines.append("-- results --")
    log_lines += result_lines
    log_path = os.path.join(out_dir, f"{args.command}.log")
    try:
        exports.atomic_write_text(log_path, "\n".join(log_lines) + "\n")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO

    for line in result_lines:
        print(line)
    print(f"log: {log_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
