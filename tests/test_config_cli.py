"""Config parsing contract and end-to-end command-line runs."""

import copy
import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from spdc_modes import cli
from spdc_modes.cli import build_parser, main
from spdc_modes.config import ConfigError, load_config, parse_config
from spdc_modes.exports import read_csv
from spdc_modes.hologram import parse_pgm
from spdc_modes.kernel import marginal_intensity
from spdc_modes.optics import noncollinear_offset, phase_matching_width

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
    assert cfg.branch() == "+"
    assert cfg.output_dir == "out"
    assert cfg.n_peaks == 1
    assert cfg.peak_spacing == 0.0
    assert cfg.side_amplitude is None
    assert cfg.matching_width_mode == "derived"
    assert cfg.geometry.central_wavelength_nm == pytest.approx(810.0)
    assert cfg.geometry.filter_fwhm_nm == 10.0
    assert cfg.hologram.width_px == 1920
    assert cfg.sigma_pump == pytest.approx(0.009419280180123796, rel=1e-14)
    assert cfg.sellmeier is None
    assert cfg.index_model() is None


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
    data["phase_match"]["crystal_length_um"] = 3000.0
    with pytest.raises(ConfigError, match="exactly one spelling"):
        parse_config(data)
    data = minimal()
    del data["phase_match"]["crystal_length_mm"]
    with pytest.raises(ConfigError, match="crystal_length"):
        parse_config(data)


def test_pump_width_spellings_are_exclusive():
    data = minimal()
    data["pump"]["sigma_k_um_inv"] = 0.01
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(data)
    data = minimal()
    del data["pump"]["envelope_fwhm_um"]
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(data)


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
    assert cfg.offset() == pytest.approx(1.3469921957226902, rel=1e-12)
    ns, np_ = N_SIGNAL, N_PUMP
    expected_width = math.sqrt(ns) / (3000.0 * math.sqrt((ns - np_) * 0.195))
    assert cfg.matching_width() == pytest.approx(expected_width, rel=1e-12)
    assert cfg.matching_width() == pytest.approx(phase_matching_width(cfg.phase_match), rel=0)

    model = cfg.index_model()
    assert model is not None
    assert model(0.810) == pytest.approx(N_SIGNAL, rel=1e-14)
    with pytest.raises(ValueError, match="window"):
        model(2.0)

    single = load_config(SINGLE)
    widths = single.widths()
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
    assert cfg2.offset() == cfg.offset()
    assert cfg2.sigma_pump == cfg.sigma_pump
    assert cfg2.grid_points == cfg.grid_points
    assert any("[default]" in line for line in cfg.provenance_lines())
    assert any("[user]" in line for line in cfg.provenance_lines())


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
    assert cfg.offset() == 2.0


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
    assert parse_config(data).matching_width() == pytest.approx(0.0211)
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
    data["pump"]["peaks"] = 2
    with pytest.raises(ConfigError, match="peak_spacing_um_inv is required"):
        parse_config(data)


def test_hologram_settings_validation():
    for patch, message in (
        ({"width_px": 2}, "too small"),
        ({"input_beam": "vortex"}, "input_beam"),
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


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_help_lists_commands_and_exit_codes():
    text = build_parser().format_help()
    assert "exit codes" in text
    for name in ("tpa", "schmidt", "scan", "fedorov", "crosstalk", "pump", "hologram"):
        assert name in text


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


def test_cli_bad_grid_points_is_exit_2(tmp_path, capsys):
    assert main(["tpa", "--config", SINGLE, "--out", str(tmp_path),
                 "--grid-points", "8"]) == 2
    assert "at least 16" in capsys.readouterr().err


def test_cli_crosstalk_needs_multiple_peaks(tmp_path, capsys):
    assert main(["crosstalk", "--config", SINGLE, "--out", str(tmp_path)]) == 3
    assert "at least 2 pump peaks" in capsys.readouterr().err


def test_cli_out_of_memory_is_exit_3(tmp_path, capsys, monkeypatch):
    def exhausted(cfg, args, out_dir):
        raise MemoryError()

    monkeypatch.setitem(cli._HANDLERS, "tpa", exhausted)
    assert main(["tpa", "--config", SINGLE, "--out", str(tmp_path),
                 "--grid-points", "4096"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "4096 x 4096" in err and "lower grid.points" in err


def test_cli_blocked_output_dir_is_exit_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory\n")
    out = str(blocker / "sub")
    assert main(["tpa", "--config", SINGLE, "--out", out]) == 4
    assert "output error" in capsys.readouterr().err


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
    kernel = cfg.build_kernel()
    k, marg = marginal_intensity(kernel.intensity(), "signal")
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


def test_cli_fedorov_single_mode(tmp_path, capsys):
    out = tmp_path / "fedorov"
    assert main(["fedorov", "--config", SINGLE, "--out", str(out),
                 "--zero-width-slits"]) == 0
    stdout = capsys.readouterr().out
    assert "width ratio (unconditional / conditional) = 1.0000000000" in stdout


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
