"""Command-line front end: config-driven pipelines with CSV/PGM outputs.

Exit codes: 0 success, 2 configuration problem, 3 computation failure,
4 output I/O failure. Outputs are deterministic: identical config and
flags produce byte-identical files on one numpy build and BLAS thread
count; run metadata (parameter provenance, derived constants, summary
numbers, every warning, the BLAS thread setting) goes to
<out>/<subcommand>.log, never into the data files.

The program runs one thread, so importing this module before numpy sets
OPENBLAS_NUM_THREADS=1 unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set: numpy's OpenBLAS, and scipy's, which only
`crosstalk` loads, then start no idle worker pools, and the Schmidt tables,
the only outputs whose bits the thread count reaches, do not depend on the
host's core count. A user's own setting wins, and can move those tables'
last bits; a caller that imported numpy first keeps the library default.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
import warnings
from typing import Dict, Iterable, List, Optional, Tuple

# The BLAS thread setting and where it came from, for the log. It is decided
# before the first numpy import, because each OpenBLAS sizes its pool as it
# loads; the variables are listed in the order OpenBLAS reads them.
_BLAS_USER = next((name for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                     "OMP_NUM_THREADS") if name in os.environ), None)
if _BLAS_USER is not None:
    _BLAS_THREADS = f"{os.environ[_BLAS_USER]} ({_BLAS_USER})"
elif "numpy" in sys.modules:
    _BLAS_THREADS = "library default (numpy was imported before spdc_modes.cli)"
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _BLAS_THREADS = "1 (set by spdc-modes)"

import numpy as np

from . import detection, exports, hologram, kernel, schmidt
from .config import ConfigError, RunConfig, load_config
from .optics import fwhm_to_sigma_k

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4
# most samples `pump` takes of the crystal-plane field: 64 per period of a
# 3-peak comb at 0.168 1/um spacing reach this at an envelope FWHM of about 80 mm
PUMP_MAX_SAMPLES = 2 ** 20

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
        f"derived: pump angular-spectrum width sigma = {pump.sigma_pump:.10g} 1/um",
        f"derived: phase-matching width sigma' = {pump.sigma_match:.10g} 1/um",
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


# Each handler computes and returns (result lines, {file name: (writer, *data)});
# main writes the files, all or none, and only once the handler has returned.
# A caveat leaves the model as a Python warning, which main collects.
Outcome = Tuple[List[str], Dict[str, tuple]]


def _cmd_tpa(cfg: RunConfig, args) -> Outcome:
    tpa = kernel.build_multipeak(cfg.pump, cfg.grid)
    return [
        f"signal grid: [{tpa.grid_s.k_min:.10g}, {tpa.grid_s.k_max:.10g}] "
        f"x {tpa.grid_s.n_points}",
        f"idler grid: [{tpa.grid_i.k_min:.10g}, {tpa.grid_i.k_max:.10g}] "
        f"x {tpa.grid_i.n_points}",
        f"norm check: {tpa.norm():.12f}",
    ], {"kernel.csv": (exports.write_kernel_csv, tpa)}


def _above_rounding(value: float) -> str:
    """``= value``, or ``< 1e-15`` below that: there the figure is the rounding
    of the Schmidt triplets, whose digits move between equally valid decompositions."""
    return "< 1e-15" if value < 1e-15 else f"= {value:.3e}"


def _cmd_schmidt(cfg: RunConfig, args) -> Outcome:
    dec = schmidt.schmidt_decompose(kernel.build_multipeak(cfg.pump, cfg.grid))
    metrics = schmidt.schmidt_number(dec)
    lines = [
        f"modes kept: {dec.n_modes}",
        f"leading coefficient c1 = {dec.coefficients[0]:.12f} (weight {dec.coefficients[0] ** 2:.12f})",
        f"mode count (participation) = {metrics.schmidt_number:.10f}",
        f"purity = {metrics.purity:.10f}",
        f"entropy = {metrics.entropy_bits:.10f} bits",
        f"discarded weight {_above_rounding(dec.discarded_weight)}",
    ]
    # each mode's window is as wide as the closest spacing of two mode centers
    spacing = cfg.pump.mode_spacing()
    if spacing is not None:
        leak = schmidt.largest_window_leak(dec, cfg.pump.signal_centers(), spacing)
        lines.append(f"largest mode share outside its peak window {_above_rounding(leak)}")
    return lines, {
        "schmidt_coefficients.csv": (exports.write_coefficients_csv, dec),
        "signal_modes.csv": (exports.write_modes_csv, dec.grid_s.points(), dec.signal_modes),
        "idler_modes.csv": (exports.write_modes_csv, dec.grid_i.points(), dec.idler_modes),
    }


def _slit_windows(cfg: RunConfig, args) -> tuple:
    """(signal, idler) slit windows in 1/um; None for ``--zero-width-slits``."""
    return (None, None) if args.zero_width_slits else cfg.geometry.slit_windows()


def _cmd_scan(cfg: RunConfig, args) -> Outcome:
    signal_window, idler_window = _slit_windows(cfg, args)
    lines = []

    if args.wavelength_avg:
        inten = detection.wavelength_average(cfg.phase_match, cfg.geometry, cfg.pump, cfg.grid)
        lines.append("intensity averaged over the spectral filter passband "
                     f"({detection.FILTER_SAMPLES} samples)")
    else:
        inten = kernel.build_multipeak(cfg.pump, cfg.grid).intensity

    singles_s = detection.singles_scan(inten, signal_window)
    singles_i = detection.singles_scan(inten.swapped, idler_window)
    center = args.idler_center
    if center is None:
        center = detection.idler_peak_center(inten)
    coinc = detection.coincidence_scan(inten, center, signal_window, idler_window)

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
    return lines, {
        f"{name}.csv": (exports.write_scan_csv, spectrum)
        for name, spectrum in (("singles_signal", singles_s), ("singles_idler", singles_i),
                               ("coincidence_signal", coinc))
    }


def _cmd_fedorov(cfg: RunConfig, args) -> Outcome:
    inten = kernel.build_multipeak(cfg.pump, cfg.grid).intensity
    ratio = detection.fedorov_ratio(inten, _slit_windows(cfg, args), cfg.pump.mode_spacing())
    return [f"width ratio (unconditional / conditional) = {ratio:.10f}"], {}


def _cmd_crosstalk(cfg: RunConfig, args) -> Outcome:
    params = cfg.pump
    centers = params.signal_centers()
    if centers.size < 2:
        raise ValueError("crosstalk needs at least 2 modes; set pump.peaks >= 2 "
                         "or grid.both_branches on a noncollinear ring")
    # the Hermite-Gauss scale of the double-Gaussian Schmidt modes
    scale = math.sqrt(params.sigma_pump * params.sigma_match / 2.0)
    log_modes = detection.gaussian_mode_log_intensities(centers, scale, cfg.grid)
    matrix = detection.crosstalk_matrix(log_modes, cfg.grid)
    off = ~np.eye(matrix.values.shape[0], dtype=bool)
    return ["mode centers (1/um): " + ", ".join(f"{c:.6g}" for c in centers),
            f"fundamental mode scale = {scale:.10g} 1/um",
            f"largest off-diagonal log10 = {matrix.log10()[off].max():.6g}",
            ], {"crosstalk.csv": (exports.write_crosstalk_csv, matrix)}


def _cmd_pump(cfg: RunConfig, args) -> Outcome:
    params = cfg.pump
    span = 4.5 / params.sigma_pump
    # 64 samples per period 2*pi/c of the fastest comb line c, never fewer than 4096
    # (max() keeps 4096 for the NaN of an infinite span times a lone line at c = 0)
    samples = max(4096.0, 64.0 * span * float(np.max(np.abs(params.pump_centers()))) / math.pi)
    if samples > PUMP_MAX_SAMPLES:
        raise ValueError(f"the pump comb needs {samples:.6g} samples, more than "
                         f"{PUMP_MAX_SAMPLES}; lower pump.envelope_fwhm_um or the peak spacing")
    profile = hologram.pump_field(params, np.linspace(-span, span, math.ceil(samples)))
    lines = _widths(f"envelope FWHM = {hologram.envelope_fwhm(field, params.peak_spacing):.10g} um"
                    for field in (profile,))
    return lines, {"pump_field.csv": (exports.write_field_csv, profile)}


def _cmd_hologram(cfg: RunConfig, args) -> Outcome:
    params = cfg.pump
    hs = cfg.hologram
    # the first-order band reaches 2 pi magnification times its half width (1/um) in the
    # crystal plane; the outermost comb line and MIN_COVER_SIGMAS pump widths must fit
    reach = (float(np.max(np.abs(params.pump_centers())))
             + kernel.MIN_COVER_SIGMAS * params.sigma_pump)
    window = 2.0 * math.pi * hs.magnification * hs.first_order_band()[1]
    if reach > window:
        raise ValueError(f"the pump comb reaches {reach:.4g} 1/um, past the first-order window "
                         f"+-{window:.4g} 1/um, pi * hologram.magnification / (hologram."
                         "grating_period_px * hologram.pixel_pitch_um); lower pump.peaks "
                         "or pump.peak_spacing_um_inv")
    target = hologram.pump_field(params, hs.pixel_coordinates() / hs.magnification).values
    holo = hologram.encode_hologram(target, hs)

    recovered = hologram.simulate_first_order(holo)
    # comb lines sit at multiples of 2*spacing in the crystal plane, the first at
    # 2*spacing/mag on the SLM: split halfway below it (one peak: spacing 0, no split)
    split = params.peak_spacing / hs.magnification

    def recovered_widths():
        env_slm = hologram.envelope_fwhm(recovered, split)
        yield f"recovered envelope FWHM (SLM plane) = {env_slm:.10g} um"
        yield f"recovered envelope FWHM (crystal plane) = {env_slm / hs.magnification:.10g} um"

    return [
        f"raster: {hs.width_px} x {hs.height_px} px at {hs.pixel_pitch_um} um pitch, "
        f"grating period {hs.grating_period_px} px",
        f"magnification crystal->SLM = {hs.magnification}",
        f"round-trip amplitude overlap = {hologram.amplitude_overlap(target, recovered.values):.8f}",
        f"complex field overlap = {hologram.field_overlap(target, recovered.values):.8f}",
        *_widths(recovered_widths()),
        f"target envelope FWHM (crystal plane) = {fwhm_to_sigma_k(params.sigma_pump):.10g} um",
    ], {"hologram.pgm": (hologram.export_pgm, holo)}


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


def _move_into_place(stage: str, out_dir: str) -> None:
    """Rename every staged file into ``out_dir``; a target that is a
    directory is refused before the first rename."""
    moves = [(os.path.join(stage, name), os.path.join(out_dir, name))
             for name in sorted(os.listdir(stage))]
    for _, target in moves:
        if os.path.isdir(target):
            raise IsADirectoryError(f"cannot write {target}: it is a directory")
    for source, target in moves:
        os.replace(source, target)


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

    # every warning, the model's caveats and numpy's, is recorded whatever the
    # user's filters, so none reaches stderr or becomes a traceback; each distinct
    # one is reported once, in arrival order, on success. Every file is staged
    # and moved into place only once all are written, so a failed command leaves none.
    stage = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lines, outputs = _COMMANDS[args.command][1](cfg, args)
            stage = tempfile.mkdtemp(dir=out_dir, prefix=".stage-")
            for name, (writer, *data) in outputs.items():
                writer(os.path.join(stage, name), *data)
        result_lines = (_constants_lines(cfg) + lines
                        + [f"warning: {m}" for m in dict.fromkeys(str(w.message) for w in caught)]
                        + [f"wrote {os.path.join(out_dir, name)}" for name in outputs])
        flags = ((flag, getattr(args, flag[2:].replace("-", "_")))
                 for flag, _options in _COMMANDS[args.command][2])
        log_lines = [f"command: {args.command}", f"config: {args.config}",
                     f"blas threads: {_BLAS_THREADS}",
                     *(f"cli override: {key} = {'true' if value is True else value}"
                       for key, value in overrides.items()),
                     *(f"cli flag: {flag}" if value is True else f"cli flag: {flag} {value}"
                       for flag, value in flags if value is not None and value is not False),
                     "-- parameters (provenance) --", *cfg.provenance_lines(),
                     "-- results --", *result_lines, ""]
        exports.atomic_write_text(os.path.join(stage, f"{args.command}.log"),
                                  "\n".join(log_lines))
        _move_into_place(stage, out_dir)
    except ValueError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ArithmeticError as exc:
        print(f"computation error: {type(exc).__name__} {exc}; "
              "the parameters are outside the model's numerical range", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError:
        if args.command == "hologram":  # one raster row, not the grid, is what grows
            need = f"a {cfg.hologram.width_px} px raster row; lower hologram.width_px"
        else:
            need = f"{cfg.grid.n_points} x {cfg.grid.n_points} grid points; lower grid.points"
        print(f"computation error: out of memory with {need}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"output error: {str(exc).replace(stage or out_dir, out_dir)}", file=sys.stderr)
        return EXIT_IO
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)

    for line in result_lines:
        print(line)
    print(f"log: {os.path.join(out_dir, f'{args.command}.log')}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
