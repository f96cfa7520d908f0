"""Config parsing contract and end-to-end command-line runs."""

import contextlib
import copy
import dataclasses
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_modes import cli, detection, hologram, schmidt
from spdc_modes.cli import build_parser, main
from spdc_modes.config import ConfigError, load_config, parse_config
from spdc_modes.kernel import marginal_intensity, sum_difference_product
from spdc_modes.optics import phase_matching_width

from oracles import parse_pgm, read_csv

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SINGLE = os.path.join(CONFIG_DIR, "single_mode.yaml")
THREE = os.path.join(CONFIG_DIR, "three_modes.yaml")
CROSSTALK = os.path.join(CONFIG_DIR, "crosstalk.yaml")
HOLOGRAM = os.path.join(CONFIG_DIR, "hologram.yaml")

N_SIGNAL = 1.6602583173171748
N_PUMP = 1.6579880614409859


def minimal():
    return {
        "phase_match": {
            "crystal_length_mm": 3.0,
            "pump_wavelength_nm": 405.0,
            "indices": {"signal": 1.6614, "pump": 1.5672},
        },
        "pump": {"envelope_fwhm_um": 250.0},
    }


def test_minimal_config_fills_defaults():
    cfg = parse_config(minimal())
    assert cfg.grid_points == 512
    assert cfg.span_sigmas == 5.0
    assert cfg.pump.branch == "+"
    assert cfg.output_dir == "out"
    assert cfg.pump.n_peaks == 1
    assert cfg.pump.peak_spacing == 0.0
    assert cfg.pump.amplitudes == (1.0,)
    assert cfg.pump.widths.sigma_match == phase_matching_width(cfg.phase_match)  # derived
    assert cfg.geometry.central_wavelength_nm == pytest.approx(810.0)
    assert cfg.geometry.filter_fwhm_nm == 10.0
    assert cfg.hologram.width_px == 1920
    assert cfg.pump.widths.sigma_pump == pytest.approx(0.009419280180123796, rel=1e-14)
    assert cfg.phase_match.dispersion is None
    assert cfg.phase_match.downconverted_index(1.0) == cfg.phase_match.n_signal


def test_unknown_keys_rejected_with_dotted_paths():
    data = minimal()
    data["grid"] = {"points": 64, "bogus": 1}
    with pytest.raises(ConfigError, match=r"unknown keys: grid\.bogus"):
        parse_config(data)
    data = minimal()
    data["typo_section"] = {}
    with pytest.raises(ConfigError, match="typo_section"):
        parse_config(data)
    data = minimal()
    data["phase_match"]["indices"]["idler"] = 1.5
    with pytest.raises(ConfigError, match=r"indices\.idler"):
        parse_config(data)


def test_length_spellings_are_exclusive():
    data = minimal()
    del data["phase_match"]["crystal_length_mm"]
    with pytest.raises(ConfigError,
                       match=r"^missing required key: phase_match\.crystal_length_mm$"):
        parse_config(data)


def test_pump_width_spellings_are_exclusive():
    data = minimal()
    del data["pump"]["envelope_fwhm_um"]
    with pytest.raises(ConfigError, match=r"^missing required key: pump\.envelope_fwhm_um$"):
        parse_config(data)


@pytest.mark.parametrize("section, old, new, value", [
    ("phase_match", "crystal_length_um", "crystal_length_mm", 3000.0),
    ("phase_match", "pump_wavelength_um", "pump_wavelength_nm", 0.405),
    ("pump", "sigma_k_um_inv", "envelope_fwhm_um", 0.0094),
])
def test_each_quantity_has_one_spelling(tmp_path, section, old, new, value):
    # beside the one key, another unit spelling is an unknown key; in its
    # place, the one key is missing
    data = minimal()
    data[section][old] = value
    code, _out, err = run_config(tmp_path, data, "tpa")
    assert (code, err) == (2, f"configuration error: unknown keys: {section}.{old}\n")
    del data[section][new]
    code, _out, err = run_config(tmp_path, data, "tpa")
    assert (code, err) == (2, f"configuration error: missing required key: {section}.{new}\n")


def test_indices_xor_sellmeier():
    data = minimal()
    data["phase_match"]["sellmeier"] = {"ordinary": {}, "extraordinary": {}, "cut_angle_deg": 30.0}
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(data)
    data = minimal()
    del data["phase_match"]["indices"]
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(data)


def test_noncollinear_needs_index_contrast():
    data = minimal()
    data["phase_match"]["indices"] = {"signal": 1.5, "pump": 1.6}
    with pytest.raises(ConfigError, match="n_signal > n_pump"):
        parse_config(data)


def test_sellmeier_config_derivations():
    cfg = load_config(THREE)
    assert cfg.phase_match.n_signal == pytest.approx(N_SIGNAL, rel=1e-14)
    assert cfg.phase_match.n_pump == pytest.approx(N_PUMP, rel=1e-14)
    assert cfg.pump.noncollinear_offset == pytest.approx(1.3469921957226902, rel=1e-12)
    ns, np_ = N_SIGNAL, N_PUMP
    expected_width = math.sqrt(ns) / (3000.0 * math.sqrt((ns - np_) * 0.195))
    sigma_match = cfg.pump.widths.sigma_match
    assert sigma_match == pytest.approx(expected_width, rel=1e-12)
    assert sigma_match == pytest.approx(phase_matching_width(cfg.phase_match), rel=0)

    index = cfg.phase_match.downconverted_index
    assert index(0.810) == pytest.approx(N_SIGNAL, rel=1e-14)
    with pytest.raises(ValueError, match="window"):
        index(2.0)

    single = load_config(SINGLE)
    widths = single.pump.widths
    assert widths.sigma_match == widths.sigma_pump  # matching_width: equal


def test_declared_angle_cross_check():
    with open(SINGLE, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    parse_config(copy.deepcopy(data))  # 10 degrees as shipped: fine
    data["phase_match"]["sellmeier"]["external_signal_angle_deg"] = 12.0
    with pytest.raises(ConfigError, match="external emission angle"):
        parse_config(data)


def test_normalized_round_trips_to_a_fixed_point():
    with open(THREE, "r", encoding="utf-8") as fh:
        cfg = parse_config(yaml.safe_load(fh))
    tree = cfg.normalized()
    cfg2 = parse_config(tree)
    assert cfg2.normalized() == tree
    assert cfg2.pump == cfg.pump
    assert cfg2.grid_points == cfg.grid_points
    assert any("[default]" in line for line in cfg.provenance_lines())
    assert any("[user]" in line for line in cfg.provenance_lines())


# provenance of the shipped configs: key order, values and [user]/[default] tags
SHIPPED_PHASE_MATCH = """\
phase_match.crystal_length_mm = 3.0  [user]
phase_match.pump_wavelength_nm = 405.0  [user]
phase_match.regime = 'noncollinear'  [user]
phase_match.offset_override_um_inv = None  [default]
phase_match.sellmeier.ordinary.a = 2.7359  [user]
phase_match.sellmeier.ordinary.b = 0.01878  [user]
phase_match.sellmeier.ordinary.c = 0.01822  [user]
phase_match.sellmeier.ordinary.d = 0.01354  [user]
phase_match.sellmeier.extraordinary.a = 2.3753  [user]
phase_match.sellmeier.extraordinary.b = 0.01224  [user]
phase_match.sellmeier.extraordinary.c = 0.01667  [user]
phase_match.sellmeier.extraordinary.d = 0.01516  [user]
phase_match.sellmeier.valid_range_um = [0.2, 1.1]  [user]
phase_match.sellmeier.cut_angle_deg = 29.967519622236345  [user]
phase_match.sellmeier.external_signal_angle_deg = 10.0  [user]
"""
THREE_PEAK_PUMP = """\
pump.peaks = 3  [user]
pump.envelope_fwhm_um = 246.0  [user]
pump.peak_spacing_um_inv = 0.168  [user]
pump.side_amplitude = 0.63  [user]
pump.matching_width = 'derived'  [user]
grid.points = 512  [user]
grid.span_sigmas = 8.0  [user]
grid.both_branches = False  [default]
"""
SHIPPED_BENCH = {source: f"""\
detection.focal_length_mm = 100.0  [{source}]
detection.slit_width_signal_mm = 0.2  [{source}]
detection.slit_width_idler_mm = 0.4  [{source}]
detection.central_wavelength_nm = 810.0  [{source}]
detection.filter_fwhm_nm = 10.0  [{source}]
detection.medium_index = 1.0  [default]
""" for source in ("user", "default")}
SHIPPED_SLM = {source: f"""\
hologram.width_px = 1920  [{source}]
hologram.height_px = 1080  [{source}]
hologram.pixel_pitch_um = 8.0  [{source}]
hologram.grating_period_px = 6.0  [{source}]
hologram.magnification = 20.0  [{source}]
""" for source in ("user", "default")}
SHIPPED_PROVENANCE = {
    SINGLE: SHIPPED_PHASE_MATCH + """\
pump.peaks = 1  [user]
pump.envelope_fwhm_um = 250.0  [user]
pump.peak_spacing_um_inv = 0.0  [default]
pump.side_amplitude = None  [default]
pump.matching_width = 'equal'  [user]
grid.points = 512  [user]
grid.span_sigmas = 5.0  [user]
grid.both_branches = False  [default]
""" + SHIPPED_BENCH["user"] + SHIPPED_SLM["default"]
    + "output.directory = 'out/single_mode'  [user]\n",
    THREE: SHIPPED_PHASE_MATCH + THREE_PEAK_PUMP + SHIPPED_BENCH["user"]
    + SHIPPED_SLM["default"] + "output.directory = 'out/three_modes'  [user]\n",
    CROSSTALK: SHIPPED_PHASE_MATCH + THREE_PEAK_PUMP + SHIPPED_BENCH["user"]
    + SHIPPED_SLM["default"] + "output.directory = 'out/crosstalk'  [user]\n",
    HOLOGRAM: SHIPPED_PHASE_MATCH + THREE_PEAK_PUMP + SHIPPED_BENCH["default"]
    + SHIPPED_SLM["user"] + "output.directory = 'out/hologram'  [user]\n",
}


@pytest.mark.parametrize("path", sorted(SHIPPED_PROVENANCE), ids=os.path.basename)
def test_shipped_provenance_is_pinned(path):
    lines = load_config(path).provenance_lines()
    assert "\n".join(lines) + "\n" == SHIPPED_PROVENANCE[path]


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_table_keys():
    """``section.key`` for each backticked key in the first column of the
    tables under README's "## Configuration", per ``### `section` `` heading."""
    with open(README, "r", encoding="utf-8") as fh:
        body = fh.read().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"^### `(\w+)`.*$", body, flags=re.M)
    return {f"{section}.{key}"
            for section, block in zip(parts[1::2], parts[2::2])
            for first_cell in re.findall(r"^\|([^|]*)\|", block, flags=re.M)
            for key in re.findall(r"`(\w+)`", first_cell)}


def test_readme_config_tables_list_every_accepted_key():
    # three_modes.yaml gives the sellmeier keys, its indices variant the
    # others; a subsection's keys collapse to the subsection's row
    variant = shipped(THREE)
    del variant["phase_match"]["sellmeier"]
    variant["phase_match"]["indices"] = minimal()["phase_match"]["indices"]
    accepted = {".".join(path.split(".")[:2])
                for cfg in (load_config(THREE), parse_config(variant))
                for path, _value, _source in cfg.provenance}
    documented = readme_table_keys()
    assert "phase_match.sellmeier" in accepted and "phase_match.indices" in accepted
    assert documented - accepted == set()
    assert accepted - documented == set()


def test_type_coercion_errors():
    data = minimal()
    data["grid"] = {"points": "many"}
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config(data)
    data = minimal()
    data["pump"]["envelope_fwhm_um"] = True
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(data)
    data = minimal()
    data["phase_match"]["regime"] = 5
    with pytest.raises(ConfigError, match="must be a string"):
        parse_config(data)
    data = minimal()
    data["grid"] = {"both_branches": 1}
    with pytest.raises(ConfigError, match="true or false"):
        parse_config(data)


def test_offset_override_wins():
    data = minimal()
    data["phase_match"]["offset_override_um_inv"] = 2.0
    cfg = parse_config(data)
    assert cfg.pump.noncollinear_offset == 2.0
    assert cfg.emission_angle_rad is None


def test_grid_and_width_bounds():
    data = minimal()
    data["grid"] = {"points": 8}
    with pytest.raises(ConfigError, match="at least 16"):
        parse_config(data)
    data = minimal()
    data["grid"] = {"span_sigmas": -1.0}
    with pytest.raises(ConfigError, match="span_sigmas"):
        parse_config(data)
    data = minimal()
    data["pump"]["envelope_fwhm_um"] = -250.0
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config(data)


def test_matching_width_forms():
    data = minimal()
    data["pump"]["matching_width"] = 0.0211
    assert parse_config(data).pump.widths.sigma_match == pytest.approx(0.0211)
    data["pump"]["matching_width"] = "auto"
    with pytest.raises(ConfigError, match="matching_width"):
        parse_config(data)
    data["pump"]["matching_width"] = -0.5
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config(data)
    data["pump"]["matching_width"] = True
    with pytest.raises(ConfigError, match="mode name or a number"):
        parse_config(data)


def test_side_amplitude_needs_three_peaks():
    data = minimal()
    data["pump"].update({"peaks": 2, "peak_spacing_um_inv": 0.1, "side_amplitude": 0.63})
    with pytest.raises(ConfigError, match="3-peak"):
        parse_config(data)
    data = minimal()
    data["pump"].update({"peaks": 3, "peak_spacing_um_inv": 0.1, "side_amplitude": 1.5})
    with pytest.raises(ConfigError, match=r"^side_amplitude must be in \(0, 1\], got 1\.5$"):
        parse_config(data)
    data = minimal()
    data["pump"]["peaks"] = 2
    with pytest.raises(ConfigError, match="peak_spacing_um_inv is required"):
        parse_config(data)


def test_side_amplitude_gives_one_amplitude_per_peak():
    data = minimal()
    data["pump"].update({"peaks": 3, "peak_spacing_um_inv": 0.1, "side_amplitude": 0.63})
    assert parse_config(data).pump.amplitudes == (0.63, 1.0, 0.63)
    del data["pump"]["side_amplitude"]
    assert parse_config(data).pump.amplitudes == (1.0, 1.0, 1.0)
    data["pump"]["peaks"] = 0
    with pytest.raises(ConfigError, match="at least one peak"):
        parse_config(data)
    # refused without allocating: the tuple's size overflows before malloc
    data["pump"]["peaks"] = 2 ** 62
    with pytest.raises(ConfigError, match=r"^pump\.peaks = 4611686018427387904 is too many"):
        parse_config(data)
    data["pump"]["peaks"] = 10 ** 30
    with pytest.raises(ConfigError, match="is too many"):
        parse_config(data)


def test_hologram_settings_validation():
    for patch, message in (
        ({"width_px": 2}, "too small"),
        ({"grating_period_px": 2.5}, "grating period 2.5 px is below 3 px"),
        ({"input_beam": "flat"}, r"unknown keys: hologram\.input_beam"),
        ({"magnification": -1.0}, "magnification"),
        ({"pixel_pitch_um": 0.0}, "pitch"),
    ):
        data = minimal()
        data["hologram"] = patch
        with pytest.raises(ConfigError, match=message):
            parse_config(data)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("phase_match: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad))
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="is empty"):
        load_config(str(empty))
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="mapping at top level"):
        load_config(str(listy))
    for name, (content, message) in BAD_FILES.items():
        path = tmp_path / f"{name}.yaml"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == message.format(path=path)


# config files that no YAML reader or parser accepts, with the one-line error
# each gets: a problem with a mark is reported at its 1-based line and column
BAD_FILES = {
    "invalid-utf8": (b"a: \xc3\x28\n", "config {path} is not UTF-8 text: 'utf-8' codec can't "
                     "decode byte 0xc3 in position 3: invalid continuation byte"),
    "deep": (b"a: " + b"[" * 5000 + b"]" * 5000 + b"\n",
             "config {path} nests too deeply to parse"),
    "unclosed": (b"a: [1\n", "config {path} is not valid YAML: expected ',' or ']', "
                 "but got '<stream end>' (line 2, column 1)"),
    "unhashable-key": (b"? [1, 2]\n: 3\n", "config {path} is not valid YAML: "
                       "found unhashable key (line 1, column 3)"),
    "unknown-tag": (b"a: !!python/object:os.system\n", "config {path} is not valid YAML: "
                    "could not determine a constructor for the tag "
                    "'tag:yaml.org,2002:python/object:os.system' (line 1, column 4)"),
    # a reader error carries a position but no marked problem: its lines are joined
    "nul-byte": (b"a: \x00\n", "config {path} is not valid YAML: unacceptable character "
                 "#x0000: special characters are not allowed; in \"{path}\", position 3"),
}


@pytest.mark.parametrize("name", list(BAD_FILES))
def test_unreadable_config_is_one_stderr_line(tmp_path, capsys, name):
    content, message = BAD_FILES[name]
    path = tmp_path / f"{name}.yaml"
    path.write_bytes(content)
    assert main(["tpa", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message.format(path=path)}\n"


def shipped(path):
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def run_config(tmp_path, data, *argv):
    """main() on ``data`` written to a file: (exit code, stdout, stderr)."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("patch, message", [
    ({"valid_range_um": [0.2, 0.5]}, "validity window"),
    ({"ordinary": {"a": 2.7359, "b": 0.01878, "c": 0.9, "d": 0.01354}}, "resonance pole"),
    ({"ordinary": {"a": -5.0, "b": 0.01878, "c": 0.01822, "d": 0.01354}}, "n\\^2 = "),
    ({"cut_angle_deg": 89.0}, "critical angle"),
], ids=["window", "pole", "negative-n2", "past-critical-angle"])
def test_dispersion_failures_are_config_errors(tmp_path, patch, message):
    data = shipped(SINGLE)
    data["phase_match"]["sellmeier"].update(patch)
    code, out, err = run_config(tmp_path, data, "tpa")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert re.match(f"configuration error: phase_match: .*{message}", err)


@pytest.mark.parametrize("section, key, kind", [
    ("grid", "points", "an integer"),
    ("pump", "envelope_fwhm_um", "a number"),
    ("phase_match", "crystal_length_mm", "a number"),
    ("detection", "focal_length_mm", "a number"),
    ("hologram", "magnification", "a number"),
])
def test_explicit_null_is_rejected_unless_the_default_is_null(tmp_path, section, key, kind):
    data = shipped(SINGLE)
    data.setdefault(section, {})[key] = None
    code, out, err = run_config(tmp_path, data, "pump")
    assert (code, out) == (2, "")
    assert err == f"configuration error: {section}.{key} must be {kind}, got None\n"


@pytest.mark.parametrize("path, value", [
    ("phase_match.crystal_length_mm", 10 ** 400),
    ("pump.matching_width", 10 ** 400),
    ("phase_match.sellmeier.valid_range_um", [0.2, 10 ** 400]),
    ("pump.envelope_fwhm_um", math.nan),
    ("grid.span_sigmas", math.inf),
], ids=["huge-int", "huge-int-width", "huge-int-range", "nan", "inf"])
def test_non_finite_numbers_are_config_errors(tmp_path, path, value):
    data = shipped(THREE)
    *sections, key = path.split(".")
    node = data
    for section in sections:
        node = node[section]
    node[key] = value
    code, out, err = run_config(tmp_path, data, "tpa")
    assert (code, out) == (2, "")
    assert err.startswith(f"configuration error: {path} must be a finite number")
    assert err.count("\n") == 1


OVERFLOWS = pytest.mark.parametrize("command, section, key, value", [
    ("tpa", "grid", "span_sigmas", 1e308),
    ("tpa", "pump", "envelope_fwhm_um", 2.5e-298),  # sigma^2 overflows a float
    ("pump", "pump", "envelope_fwhm_um", 2.5e302),  # x^2 overflows: a NaN field
], ids=["grid-span", "narrow-pump", "wide-pump"])


@OVERFLOWS
def test_overflows_are_computation_errors(tmp_path, command, section, key, value):
    data = shipped(SINGLE)
    data[section][key] = value
    code, out, err = run_config(tmp_path, data, command)
    assert (code, out) == (3, "")
    assert err.startswith("computation error: ") and err.count("\n") == 1


def test_resolution_refusal_reads_the_point_count_in_six_digits(tmp_path):
    data = shipped(THREE)
    data["pump"]["envelope_fwhm_um"] = 1.0e-300
    code, out, err = run_config(tmp_path, data, "tpa")
    assert (code, out, err.count("\n")) == (3, "", 1)
    assert re.search(r"\(>= 7\.38288e\+303 points\)$", err), err
    # counts below 10^6 read in full
    code, _out, err = run_config(tmp_path, shipped(THREE), "tpa", "--both-branches")
    assert code == 3 and err.endswith("(>= 841 points)\n"), err


@OVERFLOWS
def test_overflow_warnings_stay_off_stderr(tmp_path, command, section, key, value):
    # pytest captures warnings in-process, so only a separate process shows
    # whether numpy's floating-point warnings reach stderr
    import spdc_modes

    data = shipped(SINGLE)
    data[section][key] = value
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    src = os.path.dirname(os.path.dirname(spdc_modes.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "spdc_modes.cli", command, "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("computation error: ") and proc.stderr.count("\n") == 1, \
        proc.stderr


def test_cli_reports_each_distinct_warning_once(tmp_path, capsys, monkeypatch):
    def noisy(cfg, args):
        for _ in range(2):
            np.exp(np.array([1e3]))
        return ["done"], (), {}

    help_text, _handler, extra = cli._COMMANDS["tpa"]
    monkeypatch.setitem(cli._COMMANDS, "tpa", (help_text, noisy, extra))
    assert main(["tpa", "--config", SINGLE, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = "done\nwarning: overflow encountered in exp\n"
    assert expected in captured.out
    assert expected in (tmp_path / "tpa.log").read_text()


def test_explicit_null_stands_for_a_null_default():
    data = minimal()
    data["phase_match"]["offset_override_um_inv"] = None
    data["pump"]["side_amplitude"] = None
    cfg = parse_config(data)
    assert cfg.pump.amplitudes == (1.0,)
    assert cfg.emission_angle_rad is not None  # offset derived, not overridden
    assert parse_config(cfg.normalized()).normalized() == cfg.normalized()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_help_lists_commands_and_exit_codes():
    text = build_parser().format_help()
    assert "exit codes" in text
    for name in ("tpa", "schmidt", "scan", "fedorov", "crosstalk", "pump", "hologram"):
        assert name in text


# every help page at 80 columns, so the subcommand table cannot drift
HELP_EPILOG = """
exit codes:
  0  success
  2  configuration problem (bad file, unknown or invalid keys, inconsistent values)
  3  computation failure (parameters outside a model's reach, or out of memory)
  4  output I/O failure
"""
HELP_PAGES = {
    "top": """\
usage: spdc-modes [-h] SUBCOMMAND ...

Biphoton angular-spectrum toolkit: kernels, mode decompositions, slit scans, and pump holograms.

positional arguments:
  SUBCOMMAND
    tpa       build the joint amplitude and export it
    schmidt   mode decomposition: coefficients and profiles
    scan      slit-scanned singles and coincidence spectra
    fedorov   unconditional/conditional width ratio
    crosstalk
              pairwise mode intensity-overlap matrix
    pump      crystal-plane structured pump field
    hologram  encode the pump into an SLM phase raster

options:
  -h, --help  show this help message and exit
""" + HELP_EPILOG,
    "tpa": """\
usage: spdc-modes tpa [-h] --config PATH [--out DIR] [--grid-points N]
                      [--both-branches]

options:
  -h, --help       show this help message and exit
  --config PATH    YAML run configuration
  --out DIR        output directory (overrides output.directory)
  --grid-points N  override grid.points
  --both-branches  include both emission branches (overrides
                   grid.both_branches)
""" + HELP_EPILOG,
    "schmidt": """\
usage: spdc-modes schmidt [-h] --config PATH [--out DIR] [--grid-points N]
                          [--both-branches]

options:
  -h, --help       show this help message and exit
  --config PATH    YAML run configuration
  --out DIR        output directory (overrides output.directory)
  --grid-points N  override grid.points
  --both-branches  include both emission branches (overrides
                   grid.both_branches)
""" + HELP_EPILOG,
    "scan": """\
usage: spdc-modes scan [-h] --config PATH [--out DIR] [--grid-points N]
                       [--both-branches] [--idler-center K] [--wavelength-avg]
                       [--zero-width-slits]

options:
  -h, --help          show this help message and exit
  --config PATH       YAML run configuration
  --out DIR           output directory (overrides output.directory)
  --grid-points N     override grid.points
  --both-branches     include both emission branches (overrides
                      grid.both_branches)
  --idler-center K    fixed idler slit center in 1/um (default: idler marginal
                      peak)
  --wavelength-avg    average the intensity over the spectral filter passband
  --zero-width-slits  ideal zero-width slits (exact marginal / conditional
                      slice)
""" + HELP_EPILOG,
    "fedorov": """\
usage: spdc-modes fedorov [-h] --config PATH [--out DIR] [--grid-points N]
                          [--both-branches] [--zero-width-slits]

options:
  -h, --help          show this help message and exit
  --config PATH       YAML run configuration
  --out DIR           output directory (overrides output.directory)
  --grid-points N     override grid.points
  --both-branches     include both emission branches (overrides
                      grid.both_branches)
  --zero-width-slits  ideal zero-width slits (exact marginal / conditional
                      slice)
""" + HELP_EPILOG,
    "crosstalk": """\
usage: spdc-modes crosstalk [-h] --config PATH [--out DIR] [--grid-points N]
                            [--both-branches]

options:
  -h, --help       show this help message and exit
  --config PATH    YAML run configuration
  --out DIR        output directory (overrides output.directory)
  --grid-points N  override grid.points
  --both-branches  include both emission branches (overrides
                   grid.both_branches)
""" + HELP_EPILOG,
    "pump": """\
usage: spdc-modes pump [-h] --config PATH [--out DIR] [--grid-points N]
                       [--both-branches]

options:
  -h, --help       show this help message and exit
  --config PATH    YAML run configuration
  --out DIR        output directory (overrides output.directory)
  --grid-points N  override grid.points
  --both-branches  include both emission branches (overrides
                   grid.both_branches)
""" + HELP_EPILOG,
    "hologram": """\
usage: spdc-modes hologram [-h] --config PATH [--out DIR] [--grid-points N]
                           [--both-branches]

options:
  -h, --help       show this help message and exit
  --config PATH    YAML run configuration
  --out DIR        output directory (overrides output.directory)
  --grid-points N  override grid.points
  --both-branches  include both emission branches (overrides
                   grid.both_branches)
""" + HELP_EPILOG,
}


@pytest.mark.parametrize("page", sorted(HELP_PAGES))
def test_cli_help_pages_are_pinned(page, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(["--help"] if page == "top" else [page, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == HELP_PAGES[page]


def test_cli_missing_config_is_exit_2(tmp_path, capsys):
    assert main(["tpa", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_unknown_key_is_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    data = minimal()
    data["grid"] = {"bogus": 1}
    path.write_text(yaml.safe_dump(data))
    assert main(["tpa", "--config", str(path)]) == 2
    assert "grid.bogus" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, path", [
    ("  points: 512\n", "  points: 512\n  points: 16\n", "grid.points"),
    ("ordinary: {a: 2.7359,", "ordinary: {a: 2.7359, a: 2.7,", "phase_match.sellmeier.ordinary.a"),
], ids=["block", "flow"])
def test_cli_repeated_key_is_exit_2(tmp_path, capsys, old, new, path):
    # safe_load would keep the last value: the 16-point grid, or a = 2.7
    with open(THREE, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    text = text.replace(old, new)
    line = text[:text.index(new) + len(new)].count("\n") + (new[-1] != "\n")
    config = tmp_path / "cfg.yaml"
    config.write_text(text)
    assert main(["tpa", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: repeated key: {path} (line {line})\n")
    assert os.listdir(tmp_path) == ["cfg.yaml"]


def test_a_key_beside_a_merge_key_is_not_a_repeat(tmp_path):
    # each key beside the merge overrides the merged one, as under yaml.safe_load
    with open(THREE, "r", encoding="utf-8") as fh:
        text = fh.read()
    old = "extraordinary: {a:"
    assert text.count(old) == 1
    text = text.replace("ordinary: {", "ordinary: &o {", 1).replace(old, "extraordinary: {<<: *o, a:")
    config = tmp_path / "cfg.yaml"
    config.write_text(text)
    assert load_config(str(config)).provenance == load_config(THREE).provenance


def test_cli_bad_grid_points_is_exit_2(tmp_path, capsys):
    assert main(["tpa", "--config", SINGLE, "--out", str(tmp_path),
                 "--grid-points", "8"]) == 2
    assert "at least 16" in capsys.readouterr().err


def test_grid_points_flag_and_key_fail_with_one_line(tmp_path):
    data = shipped(SINGLE)
    flagged = run_config(tmp_path, data, "tpa", "--grid-points", "8")
    data["grid"]["points"] = 8
    assert flagged == run_config(tmp_path, data, "tpa") == (
        2, "", "configuration error: grid.points must be at least 16, got 8\n")


def test_flags_are_recorded_as_the_values_used(tmp_path, monkeypatch):
    used = []
    help_text, _handler, extra = cli._COMMANDS["tpa"]
    monkeypatch.setitem(cli._COMMANDS, "tpa", (
        help_text, lambda cfg, args: used.append(cfg) or ([], (), {}), extra))
    out = tmp_path / "D"
    assert main(["tpa", "--config", THREE, "--grid-points", "64", "--both-branches",
                 "--out", str(out)]) == 0
    (cfg,) = used
    assert (cfg.grid_points, cfg.pump.branch, cfg.output_dir) == (64, "both", str(out))
    tree = cfg.normalized()
    assert (tree["grid"]["points"], tree["grid"]["both_branches"]) == (64, True)
    assert tree["output"]["directory"] == str(out)
    log = (out / "tpa.log").read_text().splitlines()
    assert {"grid.points = 64  [user]", "grid.both_branches = True  [user]",
            f"output.directory = '{out}'  [user]"} <= set(log)

    # a null or missing section takes the flag; one that is no mapping is still refused
    monkeypatch.undo()
    data = shipped(SINGLE)
    data["grid"] = None
    del data["output"]
    code, stdout, _err = run_config(tmp_path, data, "tpa", "--grid-points", "64")
    assert code == 0 and "signal grid: " in stdout and stdout.count(" x 64\n") == 2
    data["grid"] = [512]
    assert run_config(tmp_path, data, "tpa", "--grid-points", "64") == (
        2, "", "configuration error: grid must be a mapping, got list\n")


def test_cli_grating_period_below_the_minimum_is_exit_2(tmp_path):
    data = shipped(HOLOGRAM)
    data["hologram"]["grating_period_px"] = 2.5
    code, out, err = run_config(tmp_path, data, "hologram")
    assert (code, out) == (2, "")
    assert err == ("configuration error: grating period 2.5 px is below 3 px; "
                   "the first order would alias into its neighbours\n")


def test_cli_crosstalk_needs_multiple_peaks(tmp_path, capsys):
    assert main(["crosstalk", "--config", SINGLE, "--out", str(tmp_path)]) == 3
    assert "crosstalk needs at least 2 modes" in capsys.readouterr().err


def test_cli_crosstalk_takes_the_modes_of_both_rings(tmp_path, capsys):
    # one pump peak, two rings: one mode per ring, a full offset apart
    assert main(["crosstalk", "--config", SINGLE, "--out", str(tmp_path),
                 "--grid-points", "614", "--both-branches"]) == 0
    capsys.readouterr()
    cfg = load_config(SINGLE, {"grid.points": 614, "grid.both_branches": True})
    centers = cfg.pump.signal_centers()
    assert centers == pytest.approx([0.6735, -0.6735], abs=1e-4)
    scale = schmidt.analytic_double_gaussian(cfg.pump.widths).mode_scale
    header, table = read_csv(str(tmp_path / "crosstalk.csv"))
    log10 = table[:, header.index("log10_value")].reshape(2, 2)
    # Gaussian intensity modes exp(-(k - c)^2 / s^2): log X = -(c1 - c2)^2 / s^2
    closed = -((centers[0] - centers[1]) / scale) ** 2 / math.log(10.0)
    assert log10[0, 1] == log10[1, 0] == pytest.approx(closed, rel=1e-10)
    assert log10[0, 0] == log10[1, 1] == 0.0


def test_cli_out_of_memory_is_exit_3(tmp_path, capsys, monkeypatch):
    def exhausted(cfg, args):
        raise MemoryError()

    help_text, _handler, extra = cli._COMMANDS["tpa"]
    monkeypatch.setitem(cli._COMMANDS, "tpa", (help_text, exhausted, extra))
    assert main(["tpa", "--config", SINGLE, "--out", str(tmp_path),
                 "--grid-points", "4096"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "4096 x 4096" in err and "lower grid.points" in err


def test_cli_hologram_out_of_memory_names_the_raster(tmp_path, capsys, monkeypatch):
    # hologram reads no grid: its raster is height_px x width_px bytes
    def exhausted(cfg, args):
        raise MemoryError()

    help_text, _handler, extra = cli._COMMANDS["hologram"]
    monkeypatch.setitem(cli._COMMANDS, "hologram", (help_text, exhausted, extra))
    assert main(["hologram", "--config", HOLOGRAM, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "computation error: out of memory with a 1920 x 1080 px raster; "
        "lower hologram.width_px or hologram.height_px\n")


def test_cli_blocked_output_dir_is_exit_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory\n")
    out = str(blocker / "sub")
    assert main(["tpa", "--config", SINGLE, "--out", out]) == 4
    assert "output error" in capsys.readouterr().err


def test_a_blocked_output_file_leaves_no_file_of_the_command(tmp_path, capsys):
    # the later signal_modes.csv cannot be written, so neither may the
    # coefficients that come before it; no stage directory is left behind
    (tmp_path / "signal_modes.csv").mkdir()
    argv = ["schmidt", "--config", SINGLE, "--out", str(tmp_path), "--grid-points", "128"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == f"output error: cannot write {tmp_path / 'signal_modes.csv'}: it is a directory\n"
    assert os.listdir(tmp_path) == ["signal_modes.csv"]
    (tmp_path / "signal_modes.csv").rmdir()
    assert main(argv) == 0
    assert sorted(os.listdir(tmp_path)) == ["idler_modes.csv", "schmidt.log",
                                            "schmidt_coefficients.csv", "signal_modes.csv"]


def test_a_failed_write_is_reported_at_the_final_path(tmp_path, capsys, monkeypatch):
    # the writer fails inside the stage directory; the error line names the
    # file the user asked for, and nothing is left behind
    def full_disk(path, *data):
        raise OSError(28, "No space left on device", path)
    monkeypatch.setattr(cli.exports, "write_modes_csv", full_disk)
    argv = ["schmidt", "--config", SINGLE, "--out", str(tmp_path), "--grid-points", "128"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == (f"output error: [Errno 28] No space left on device: "
                   f"'{tmp_path / 'signal_modes.csv'}'\n")
    assert os.listdir(tmp_path) == []


def test_cli_tpa_outputs_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert main(["tpa", "--config", SINGLE, "--out", str(out),
                     "--grid-points", "64"]) == 0
    stdout = capsys.readouterr().out
    assert "norm check: 1.000000000000" in stdout

    csv1 = (out1 / "kernel.csv").read_bytes()
    assert csv1 == (out2 / "kernel.csv").read_bytes()
    assert csv1.startswith(b"ks,ki,amplitude\n")
    meta = yaml.safe_load((out1 / "kernel.meta.yaml").read_text())
    assert meta["signal_grid"]["n_points"] == 64
    log = (out1 / "tpa.log").read_text()
    assert "cli override: grid.points = 64" in log
    assert "-- parameters (provenance) --" in log


def test_cli_schmidt_single_mode(tmp_path, capsys):
    out = tmp_path / "schmidt"
    assert main(["schmidt", "--config", SINGLE, "--out", str(out),
                 "--grid-points", "128"]) == 0
    stdout = capsys.readouterr().out
    assert "entropy = 0.0000000000 bits" in stdout
    header, table = read_csv(str(out / "schmidt_coefficients.csv"))
    assert header == ["mode", "coefficient", "weight"]
    assert table[0, 1] >= 0.9999
    modes_header, modes = read_csv(str(out / "signal_modes.csv"))
    assert modes_header[0] == "k_um_inv"
    assert modes.shape[0] == 128


def test_cli_scan_three_modes(tmp_path, capsys):
    out = tmp_path / "scan"
    assert main(["scan", "--config", THREE, "--out", str(out),
                 "--grid-points", "320", "--zero-width-slits"]) == 0
    stdout = capsys.readouterr().out
    spacing_line = next(l for l in stdout.splitlines() if l.startswith("peak spacings"))
    gaps = [float(v) for v in spacing_line.split(":")[1].split(",")]
    assert gaps == pytest.approx([0.168, 0.168], abs=1e-3)
    ratio_line = next(l for l in stdout.splitlines() if "height ratio" in l)
    ratio = float(ratio_line.split("=")[1])
    assert ratio == pytest.approx((1.0 / 0.63) ** 2, rel=0.05)

    # zero-width singles are exactly the kernel's signal marginal
    cfg = dataclasses.replace(load_config(THREE), grid_points=320)
    k, marg = marginal_intensity(cfg.intensity(), "signal")
    _, table = read_csv(str(out / "singles_signal.csv"))
    assert np.array_equal(table[:, 0], k)
    assert np.array_equal(table[:, 1], marg)
    assert (out / "singles_idler.csv").exists()
    assert (out / "coincidence_signal.csv").exists()


def test_cli_scan_wavelength_average(tmp_path, capsys):
    out = tmp_path / "avg"
    assert main(["scan", "--config", THREE, "--out", str(out),
                 "--grid-points", "320", "--wavelength-avg"]) == 0
    stdout = capsys.readouterr().out
    assert "averaged over the spectral filter" in stdout
    assert (out / "singles_signal.csv").exists()


def test_filter_average_warns_against_the_union_of_the_sample_supports(tmp_path):
    # single_mode's 795 nm sample clips the grid's lower edge, its 825 nm one the upper
    code, out, err = run_config(tmp_path, shipped(SINGLE), "scan", "--wavelength-avg")
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if line.startswith("warning:")] == [
        "warning: signal grid [0.6264, 0.7206] clips the amplitude support "
        "[0.6245, 0.7248]; tails are truncated",
        "warning: idler grid [-0.7206, -0.6264] clips the amplitude support "
        "[-0.7248, -0.6245]; tails are truncated",
    ]


def test_filter_average_sits_on_the_override_ring(tmp_path):
    data = shipped(THREE)
    data["phase_match"]["offset_override_um_inv"] = 1.2
    code, out, err = run_config(tmp_path, data, "scan", "--wavelength-avg")
    assert (code, err) == (0, "")
    peaks_line = next(l for l in out.splitlines() if l.startswith("signal singles peaks"))
    peaks = [float(v) for v in peaks_line.split(":")[1].split(",")]
    assert peaks == pytest.approx([0.432, 0.600, 0.768], abs=1e-3)
    assert "clips" not in out


COLLINEAR = {
    "sellmeier": {},
    "indices-equal": {"indices": {"signal": 1.6614, "pump": 1.6614}},
    "indices-contrast": {"indices": {"signal": 1.6, "pump": 1.65}},
}


@pytest.mark.parametrize("patch", COLLINEAR.values(), ids=COLLINEAR.keys())
def test_collinear_filter_average_is_the_monochromatic_intensity(tmp_path, patch):
    # no ring to move: every spectral sample keeps the zero offset
    data = shipped(SINGLE)
    pm = data["phase_match"]
    pm["regime"] = "collinear"
    del pm["sellmeier"]["external_signal_angle_deg"]
    if patch:
        del pm["sellmeier"]
        pm.update(patch)
    code, _, err = run_config(tmp_path, data, "scan", "--wavelength-avg")
    assert (code, err) == (0, "")

    cfg = parse_config(data)
    avg, mono = (sum_difference_product(inten.at_sums, inten.at_differences,
                                        inten.grid_s.n_points)
                 for inten in (detection.wavelength_average(cfg.phase_match, cfg.geometry,
                                                            cfg.pump, cfg.grid()),
                               cfg.intensity()))
    assert np.max(np.abs(avg - mono)) <= 1e-12 * mono.max()


def test_scan_and_fedorov_report_each_build_warning_once(tmp_path):
    data = shipped(THREE)
    data["grid"]["span_sigmas"] = 3.0  # the grid clips both axes' supports
    for command in ("scan", "fedorov"):
        code, out, err = run_config(tmp_path, data, command)
        assert (code, err) == (0, "")
        warned = [line.split(" grid ")[0] for line in out.splitlines()
                  if line.startswith("warning:")]
        assert warned == ["warning: signal", "warning: idler"], command


def test_cli_fedorov_single_mode(tmp_path, capsys):
    out = tmp_path / "fedorov"
    assert main(["fedorov", "--config", SINGLE, "--out", str(out),
                 "--zero-width-slits"]) == 0
    stdout = capsys.readouterr().out
    assert "width ratio (unconditional / conditional) = 1.0000000000" in stdout


# the shipped three_modes Fedorov ratios, as printed (finite slits, zero-width slits)
THREE_MODES_FEDOROV = {False: 1.0294775023, True: 1.3022338411}


@pytest.mark.parametrize("zero_width", [False, True], ids=["slits", "zero-width"])
@pytest.mark.parametrize("config, pump, flags, rel", [
    (SINGLE, {}, ("--grid-points", "614", "--both-branches"), 0.0),
    (THREE, {}, ("--grid-points", "841", "--both-branches"), 1e-2),
    (THREE, {"peaks": 2, "side_amplitude": None}, (), 1e-2),
    # the side amplitude weights the outer peaks, not the central mode's widths
    (THREE, {"side_amplitude": 0.8}, (), 0.0),
], ids=["single_mode-both", "three_modes-both", "two-peaks", "side-amplitude-0.8"])
def test_cli_fedorov_measures_one_mode_of_a_multi_mode_run(tmp_path, config, pump, flags, rel,
                                                           zero_width):
    # each run has two or more singles peaks above half height
    data = shipped(config)
    data["pump"].update(pump)
    argv = ["fedorov", *flags] + (["--zero-width-slits"] if zero_width else [])
    code, out, err = run_config(tmp_path, data, *argv)
    assert (code, err) == (0, "")
    ratio = float(re.search(r"width ratio \(unconditional / conditional\) = (\S+)", out)[1])
    expected = 1.0 if config == SINGLE else THREE_MODES_FEDOROV[zero_width]
    assert ratio == pytest.approx(expected, rel=rel)
    if config == THREE and zero_width:
        # ideal slits: the ratio of the per-peak double Gaussian is its Schmidt number
        widths = load_config(THREE).pump.widths
        assert ratio == pytest.approx(
            schmidt.analytic_double_gaussian(widths).schmidt_number, rel=1e-2)


def collinear(config):
    """A shipped config moved to the collinear regime: one ring, at zero offset."""
    data = shipped(config)
    data["phase_match"]["regime"] = "collinear"
    del data["phase_match"]["sellmeier"]["external_signal_angle_deg"]
    return data


def test_cli_fedorov_on_coincident_rings(tmp_path):
    # both branches at zero offset are one ring: one singles peak, measured whole
    code, out, err = run_config(tmp_path, collinear(SINGLE), "fedorov", "--grid-points", "614",
                                "--both-branches")
    assert (code, err) == (0, "")
    assert "width ratio (unconditional / conditional) = 1.0000000000" in out


def test_cli_crosstalk_on_coincident_rings_lists_each_mode_once(tmp_path):
    runs = [run_config(tmp_path, collinear(THREE), "crosstalk", "--grid-points", "841", *flag)
            for flag in ((), ("--both-branches",))]
    assert [(code, err) for code, _, err in runs] == [(0, ""), (0, "")]
    (_, plus, _), (_, both, _) = runs
    assert both == plus
    assert "mode centers (1/um): 0.168, 0, -0.168\n" in both


# every analysis command on both emission rings, at the shipped configs' smallest
# grid that resolves them; crosstalk refuses a single peak, and the Fedorov runs
# of three_modes and single_mode are measured above
BOTH_BRANCH_RUNS = [(config, points, command)
                    for config, points in ((THREE, 841), (CROSSTALK, 841), (HOLOGRAM, 841),
                                           (SINGLE, 614))
                    for command in ("schmidt", "scan", "fedorov", "crosstalk")
                    if (config, command) not in ((SINGLE, "crosstalk"), (SINGLE, "fedorov"),
                                                 (THREE, "fedorov"))]


@pytest.mark.parametrize("config, points, command", BOTH_BRANCH_RUNS, ids=[
    f"{command}-{os.path.basename(config)[:-5]}" for config, _, command in BOTH_BRANCH_RUNS])
def test_cli_both_branches_runs_every_command(tmp_path, capsys, config, points, command):
    assert main([command, "--config", config, "--out", str(tmp_path),
                 "--grid-points", str(points), "--both-branches"]) == 0
    stdout = capsys.readouterr().out
    if command == "crosstalk":
        # one mode per peak on each ring; the rings sit far apart but stay finite in log10
        line = next(l for l in stdout.splitlines() if l.startswith("mode centers"))
        assert len(line.split(":")[1].split(",")) == 6
        _header, table = read_csv(str(tmp_path / "crosstalk.csv"))
        assert table.shape[0] == 36 and np.all(np.isfinite(table[:, 3]))


def test_cli_crosstalk_three_modes(tmp_path, capsys):
    out = tmp_path / "xtalk"
    assert main(["crosstalk", "--config", CROSSTALK, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    line = next(l for l in stdout.splitlines() if "largest off-diagonal log10" in l)
    assert float(line.split("=")[1]) < -41.0
    header, table = read_csv(str(out / "crosstalk.csv"))
    assert header == ["row", "col", "value", "log10_value"]
    off_diag = table[table[:, 0] != table[:, 1]]
    assert np.all(off_diag[:, 3] < -41.0)
    diag = table[table[:, 0] == table[:, 1]]
    assert np.allclose(diag[:, 2], 1.0, atol=1e-12)


def test_cli_pump_envelope(tmp_path, capsys):
    out = tmp_path / "pump"
    assert main(["pump", "--config", THREE, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    match = re.search(r"envelope FWHM = ([0-9.]+) um", stdout)
    assert match is not None
    assert float(match.group(1)) == pytest.approx(246.0, rel=1e-3)
    header, _ = read_csv(str(out / "pump_field.csv"))
    assert header == ["x_um", "field_re", "field_im"]


def test_cli_hologram(tmp_path, capsys):
    out = tmp_path / "holo"
    assert main(["hologram", "--config", HOLOGRAM, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    match = re.search(r"round-trip amplitude overlap = ([0-9.]+)", stdout)
    assert match is not None
    assert float(match.group(1)) > 0.99
    levels = parse_pgm((out / "hologram.pgm").read_bytes())
    assert levels.shape == (1080, 1920)
    assert "hologram.log" in stdout


@pytest.mark.parametrize("command, config, spacing, data_file, reason", [
    ("pump", THREE, 0.004, "pump_field.csv", "peak is cut off by the sampled range"),
    ("hologram", HOLOGRAM, 0.45, "hologram.pgm", "multiple disjoint regions sit above half"),
], ids=["pump", "hologram"])
def test_width_failures_are_skipped(tmp_path, command, config, spacing, data_file, reason):
    """A width is a summary: when it cannot be read the command still succeeds."""
    data = shipped(config)
    data["pump"]["peak_spacing_um_inv"] = spacing
    code, stdout, err = run_config(tmp_path, data, command)
    assert (code, err) == (0, "")
    assert f"width extraction skipped: {reason}" in stdout
    assert (tmp_path / "out" / data_file).exists()
    if command == "hologram":
        assert "round-trip amplitude overlap = 0.98420761\n" in stdout


def test_a_command_failing_after_its_computation_writes_no_data_file(tmp_path, monkeypatch):
    def broken(a, b):
        raise ValueError("overlap failed")

    monkeypatch.setattr(hologram, "field_overlap", broken)
    code, stdout, err = run_config(tmp_path, shipped(HOLOGRAM), "hologram")
    assert (code, stdout, err) == (3, "", "computation error: overlap failed\n")
    assert os.listdir(tmp_path / "out") == []


def test_cli_schmidt_reports_the_window_leak_of_a_multi_peak_pump(tmp_path, capsys):
    assert main(["schmidt", "--config", THREE, "--out", str(tmp_path)]) == 0
    match = re.search(r"\nlargest mode share outside its peak window = (\S+)\n",
                      capsys.readouterr().out)
    assert match is not None and float(match.group(1)) <= 1e-12
    assert match.group(0)[1:] in (tmp_path / "schmidt.log").read_text()
    assert main(["schmidt", "--config", SINGLE, "--out", str(tmp_path)]) == 0
    assert "peak window" not in capsys.readouterr().out


def test_cli_schmidt_reports_the_window_leak_of_modes_on_two_rings(tmp_path, capsys):
    # one pump peak on both rings: two modes 1.347 1/um apart, each window that wide
    assert main(["schmidt", "--config", SINGLE, "--out", str(tmp_path),
                 "--grid-points", "614", "--both-branches"]) == 0
    out = capsys.readouterr().out
    assert "modes kept: 2\n" in out
    match = re.search(r"\nlargest mode share outside its peak window = (\S+)\n", out)
    assert match is not None and float(match.group(1)) <= 1e-12


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask022", "umask027"])
def test_cli_outputs_get_the_umask_mode(tmp_path, capsys, umask):
    previous = os.umask(umask)
    try:
        assert main(["pump", "--config", THREE, "--out", str(tmp_path)]) == 0
        assert main(["hologram", "--config", HOLOGRAM, "--out", str(tmp_path)]) == 0
    finally:
        os.umask(previous)
    capsys.readouterr()
    for name in ("pump_field.csv", "hologram.pgm", "hologram.log"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask, name


def test_cli_import_leaves_scipy_optimize_out():
    import spdc_modes

    src = os.path.dirname(os.path.dirname(spdc_modes.__file__))
    code = "import sys, spdc_modes.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# fuzz: perturbed shipped configs through the whole command line
# ---------------------------------------------------------------------------

SHIPPED = {os.path.basename(p): shipped(p) for p in (SINGLE, THREE, CROSSTALK, HOLOGRAM)}
# ceilings on the sizes that set memory use and run time, so no case allocates much
MAX_GRID_POINTS = 256
MAX_RASTER_SIDE = 2048
MAX_PEAKS = 64

EDGE_VALUES = (None, True, False, 0, -1, 1, 2 ** 63, 10 ** 400, 0.0, -0.0, 1e-320, 1e308,
               math.nan, math.inf, -math.inf, "", "derived", "equal", "+", [], [0.2], {})
FUZZ_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _perturb(data, draw):
    """Delete, rescale, replace or add keys of a shipped config."""
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(_key_paths(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(("delete", "scale", "scale", "replace", "replace", "add")))
        value = parent.get(key)
        if action == "delete":
            parent.pop(key, None)
        elif (action == "scale" and type(value) in (int, float)
              and abs(value) <= sys.float_info.max):
            factor = draw(st.sampled_from((-1.0, 0.0, 1e-300, 1e-3, 0.5, 0.98, 1.02, 2.0, 1e3,
                                           1e300)))
            scaled = value * factor
            parent[key] = int(scaled) if type(value) is int and math.isfinite(scaled) else scaled
        else:
            # a copy, so later edits cannot change the shared EDGE_VALUES
            new_value = copy.deepcopy(draw(FUZZ_VALUES))
            if action == "add":
                key = draw(st.sampled_from(("extra", key + "_um", "peaks", "points")))
            parent[key] = new_value


def _capped(data):
    for section, key, ceiling in (("grid", "points", MAX_GRID_POINTS),
                                  ("hologram", "width_px", MAX_RASTER_SIDE),
                                  ("hologram", "height_px", MAX_RASTER_SIDE),
                                  ("pump", "peaks", MAX_PEAKS)):
        node = data.get(section)
        if isinstance(node, dict) and type(node.get(key)) is int and node[key] > ceiling:
            node[key] = ceiling
    grid = data.get("grid")
    if isinstance(grid, dict) and "points" not in grid:
        grid["points"] = MAX_GRID_POINTS


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_configs_fail_with_one_line(data):
    name = data.draw(st.sampled_from(sorted(SHIPPED)))
    config = copy.deepcopy(SHIPPED[name])
    _perturb(config, data.draw)
    _capped(config)
    command = data.draw(st.sampled_from(tuple(cli._COMMANDS)))
    argv = [command]
    if data.draw(st.booleans()):
        argv.append(f"--grid-points={data.draw(st.integers(-4, MAX_GRID_POINTS))}")
    if data.draw(st.booleans()):
        argv.append("--both-branches")
    if command in ("scan", "fedorov") and data.draw(st.booleans()):
        argv.append("--zero-width-slits")
    if command == "scan":
        if data.draw(st.booleans()):
            argv.append("--wavelength-avg")
        if data.draw(st.booleans()):
            argv.append(f"--idler-center={data.draw(st.floats())!r}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        code, _out, err = run_config(tmp_path, config, *argv)
        leftovers = [f for _, _, files in os.walk(tmp) for f in files if f.startswith(".tmp-")]
    assert code in (0, 2, 3, 4), (code, err)
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    assert leftovers == []
