"""Phase-hologram encoding, replay, envelopes, and PGM round-trips."""

import math
import os

import numpy as np
import pytest

from spdc_modes.config import load_config
from spdc_modes.detection import Profile1D
from spdc_modes.hologram import (
    HologramImage,
    HologramSettings,
    amplitude_overlap,
    encode_hologram,
    envelope_fwhm,
    envelope_of,
    export_pgm,
    field_overlap,
    first_order,
    inverse_sinc,
    phase_map,
    pump_field,
    quantize_phase,
    simulate_first_order,
)
from spdc_modes.kernel import MultiPeakParams
from spdc_modes.optics import GAUSSIAN_FWHM_FACTOR

from oracles import parse_pgm, pgm_bytes
from traced import traced_peak

HOLOGRAM = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "hologram.yaml")
PITCH = 8.0
PERIOD = 6.0


def slm(width, height=1, period=PERIOD):
    return HologramSettings(width, height, PITCH, period)


def comb_pump(amplitudes, spacing, sigma):
    """Collinear multi-peak pump; the hologram reads only the comb and sigma_pump."""
    return MultiPeakParams(amplitudes, spacing, 0.0, sigma, sigma)


def flat_target(settings, value=1.0):
    return np.full(settings.width_px, value, dtype=complex)


def gaussian(x, fwhm_um):
    sigma_x = fwhm_um / GAUSSIAN_FWHM_FACTOR
    return np.exp(-(x ** 2) / (2.0 * sigma_x ** 2)).astype(complex)


def test_inverse_sinc_roundtrip():
    y = np.linspace(-math.pi, 0.0, 1000)
    a = np.sinc(y / math.pi)
    # table is flat near y = 0, where dy/da blows up; 1e-5 is what an
    # 8k-entry inversion honestly delivers there
    assert np.max(np.abs(inverse_sinc(a) - y)) < 1e-5
    assert inverse_sinc(np.array(1.0)) == 0.0
    assert inverse_sinc(np.array(0.0)) == pytest.approx(-math.pi)
    # out-of-range amplitudes clip instead of extrapolating
    assert inverse_sinc(np.array(1.7)) == 0.0
    assert inverse_sinc(np.array(-0.2)) == pytest.approx(-math.pi)


def test_depth_rises_monotonically_with_amplitude():
    a = np.linspace(0.0, 1.0, 512)
    depth = 1.0 + inverse_sinc(a) / math.pi
    assert depth[0] == pytest.approx(0.0, abs=1e-12)
    assert depth[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(depth) >= 0)


def test_flat_target_is_periodic_at_the_grating_period():
    settings = slm(240, 4)
    holo = encode_hologram(flat_target(settings), settings)
    levels = holo.phase_levels
    assert np.array_equal(levels[:, 6:], levels[:, :-6])
    assert not np.array_equal(levels[:, 3:], levels[:, :-3])
    assert np.array_equal(levels[0], levels[-1])  # rows repeat the profile


def test_zero_amplitude_regions_encode_level_zero():
    settings = slm(200)
    raster_x = settings.pixel_coordinates()
    phase = phase_map(np.where(raster_x < 0.0, 1.0, 0.0).astype(complex), settings)
    assert np.all(phase[raster_x > 0.0] == 0.0)
    assert np.any(phase[raster_x < -PITCH] > 0.0)

    with pytest.raises(ValueError, match="zero over the raster"):
        phase_map(np.zeros(settings.width_px, dtype=complex), settings)


def test_targets_hold_one_sample_per_pixel_column():
    settings = slm(200)
    for target in (np.ones(199, dtype=complex), np.ones(201, dtype=complex),
                   np.ones((1, 200), dtype=complex)):
        for encode in (phase_map, encode_hologram):
            with pytest.raises(ValueError, match="one sample per pixel column"):
                encode(target, settings)


def test_pi_phase_flip_shifts_128_levels():
    settings = slm(240)
    plus = encode_hologram(flat_target(settings, 1.0), settings)
    minus = encode_hologram(flat_target(settings, -1.0), settings)
    diff = (minus.phase_levels.astype(int) - plus.phase_levels.astype(int)) % 256
    assert np.all(diff == 128)


def test_quantize_phase_wraps():
    phases = np.array([0.0, math.pi, 2.0 * math.pi, 2.0 * math.pi - 1e-9])
    assert np.array_equal(quantize_phase(phases), np.array([0, 128, 0, 0], dtype=np.uint8))


def test_gaussian_target_round_trip():
    settings = slm(1920, 8)
    target = gaussian(settings.pixel_coordinates(), 4920.0)
    holo = encode_hologram(target, settings)
    replay = simulate_first_order(holo)
    assert amplitude_overlap(replay.values, target) > 0.995


def test_quantization_penalty_is_tiny():
    settings = slm(1920)
    target = gaussian(settings.pixel_coordinates(), 4920.0)
    continuous = first_order(phase_map(target, settings), settings)
    quantized = simulate_first_order(encode_hologram(target, settings))
    ov_cont = amplitude_overlap(continuous.values, target)
    ov_quant = amplitude_overlap(quantized.values, target)
    assert abs(ov_cont - ov_quant) < 1e-3


def test_zero_order_is_not_the_target():
    settings = slm(1920)
    target = gaussian(settings.pixel_coordinates(), 4920.0)
    phase = encode_hologram(target, settings).phase_levels[0] * (2.0 * math.pi / 256)
    # the undiffracted light: the window of first_order moved onto frequency 0
    grating_freq = 1.0 / (PERIOD * PITCH)
    freqs = np.fft.fftfreq(phase.size, d=PITCH)
    window = np.abs(freqs) < 0.5 * grating_freq
    zero = np.fft.ifft(np.fft.fft(np.exp(1j * phase)) * window)
    assert amplitude_overlap(zero, target) < 0.9


def test_replay_carries_the_target_phase():
    # the first order's phase follows arg E only if the encoder subtracts pi * depth
    settings = slm(1920)
    single = gaussian(settings.pixel_coordinates(), 4920.0)
    replay = simulate_first_order(encode_hologram(single, settings)).values
    assert field_overlap(single, replay) >= 0.99
    cfg = load_config(HOLOGRAM)
    x = cfg.hologram.pixel_coordinates()
    comb = pump_field(cfg.pump, x / cfg.hologram.magnification).values
    replay = simulate_first_order(encode_hologram(comb, cfg.hologram)).values
    assert field_overlap(comb, replay) >= 0.98


def test_encode_raster_layout():
    holo = encode_hologram(flat_target(slm(512)), slm(512, 4))
    assert holo.phase_levels.shape == (4, 512)
    assert holo.phase_levels.dtype == np.uint8
    assert holo.settings.pixel_coordinates().sum() == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError, match="too small"):
        slm(512, 0)
    with pytest.raises(ValueError, match="too small"):
        slm(15, 4)


def test_aliasing_guards():
    assert slm(64, period=3.0).grating_period_px == 3.0
    with pytest.raises(ValueError, match="below 3 px; the first order would alias"):
        slm(64, period=2.9)
    with pytest.raises(ValueError, match="uint8"):
        HologramImage(np.zeros((2, 64)), slm(64, 2))
    with pytest.raises(ValueError, match="raster shape"):
        HologramImage(np.zeros((2, 63), dtype=np.uint8), slm(64, 2))
    with pytest.raises(ValueError, match="1D"):
        first_order(np.zeros((2, 64)), slm(64))


def test_envelope_fwhm_plain_gaussian():
    x = np.linspace(-800.0, 800.0, 8192)
    field = Profile1D(x, gaussian(x, 246.0))
    assert envelope_fwhm(field) == pytest.approx(246.0, rel=1e-5)


def test_envelope_fwhm_strips_comb_beating():
    sigma = GAUSSIAN_FWHM_FACTOR / 246.0
    params = comb_pump((0.63, 1.0, 0.63), 0.168, sigma)
    x = np.linspace(-4.5 / sigma, 4.5 / sigma, 4096)
    field = pump_field(params, x)
    got = envelope_fwhm(field, split_frequency=0.168)
    assert got == pytest.approx(246.0, rel=1e-4)


def test_envelope_errors():
    x = np.linspace(-10.0, 10.0, 512)
    wide = Profile1D(x, gaussian(x, 500.0))
    with pytest.raises(ValueError, match="cut off"):
        envelope_fwhm(wide)
    uneven = Profile1D(np.cumsum(np.linspace(1.0, 2.0, 64)), np.ones(64, dtype=complex))
    with pytest.raises(ValueError, match="uniform coordinate grid"):
        envelope_of(uneven, 1.0)
    with pytest.raises(ValueError, match="matching 1D"):
        Profile1D(x, np.ones(511, dtype=complex))


def test_pump_field_profiles():
    sigma = 0.01
    x = np.linspace(-500.0, 500.0, 2001)
    single = pump_field(comb_pump((1.0,), 0.0, sigma), x)
    assert np.max(np.abs(np.abs(single.values)
                         - np.exp(-(x ** 2) * sigma ** 2 / 2.0))) < 1e-12

    comb = pump_field(comb_pump((0.63, 1.0, 0.63), 0.168, sigma), x)
    assert np.abs(comb.values).max() == pytest.approx(1.0)
    # check the sampled comb exactly on a node against the closed form
    i = int(np.argmin(np.abs(x - 9.5)))
    assert x[i] == 9.5
    envelope = math.exp(-(x[i] ** 2) * sigma ** 2 / 2.0)
    expected = abs(0.5 + 0.63 * math.cos(0.336 * x[i])) * envelope / (0.5 + 0.63)
    assert np.abs(comb.values[i]) == pytest.approx(expected, rel=1e-12)


def test_pump_field_spectral_weights():
    sigma = GAUSSIAN_FWHM_FACTOR / 246.0
    params = comb_pump((0.63, 1.0, 0.63), 0.168, sigma)
    # span chosen so the comb frequency 0.336 rad/um is exactly FFT bin 96
    n = 8192
    d = (2.0 * math.pi * 96.0 / 0.336) / n
    x = (np.arange(n) - n / 2.0) * d
    field = pump_field(params, x)
    spectrum = np.abs(np.fft.fft(field.values))
    freqs = np.fft.fftfreq(n, d=d) * 2.0 * math.pi
    center = spectrum[np.abs(freqs) < 0.168].max()
    side = spectrum[np.abs(freqs - 0.336) < 0.168].max()
    assert (center / side) ** 2 == pytest.approx((1.0 / 0.63) ** 2, rel=1e-8)


def test_pump_params_validation():
    # peak count, spacing and widths are checked with MultiPeakParams in
    # test_kernel, the side amplitude in test_config_cli
    with pytest.raises(ValueError, match="sigma_pump"):
        comb_pump((1.0,), 0.0, -0.01)
    x_far = np.linspace(1e6, 1e6 + 10.0, 32)
    with pytest.raises(ValueError, match="vanished"):
        pump_field(comb_pump((1.0,), 0.0, 0.01), x_far)


def test_slm_settings_validation():
    with pytest.raises(ValueError, match="magnification"):
        HologramSettings(magnification=0.0)
    with pytest.raises(ValueError, match="pitch"):
        HologramSettings(pixel_pitch_um=0.0)


def test_pgm_bytes_and_parse(tmp_path):
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    holo = HologramImage(levels, slm(16, 16))
    path = tmp_path / "raster.pgm"
    export_pgm(str(path), holo)
    data = path.read_bytes()
    assert data == pgm_bytes(levels)
    assert data.startswith(b"P5 16 16 255\n")
    assert np.array_equal(parse_pgm(data), levels)
    with pytest.raises(ValueError, match="not a binary PGM"):
        parse_pgm(b"P6 2 2 255\n" + bytes(4))
    with pytest.raises(ValueError, match="maxval 255"):
        parse_pgm(b"P5 2 2 128\n" + bytes(4))
    with pytest.raises(ValueError, match="payload holds"):
        parse_pgm(b"P5 4 4 255\n" + bytes(3))


def test_pgm_file_round_trip(tmp_path):
    levels = np.random.default_rng(7).integers(0, 256, size=(32, 48)).astype(np.uint8)
    holo = HologramImage(levels, slm(48, 32))
    path = tmp_path / "raster.pgm"
    export_pgm(str(path), holo)
    assert path.read_bytes() == pgm_bytes(levels)
    assert np.array_equal(parse_pgm(path.read_bytes()), levels)


def test_an_encoded_raster_is_one_read_only_row(tmp_path):
    settings = slm(240, 5)
    holo = encode_hologram(flat_target(settings), settings)
    levels = holo.phase_levels
    assert levels.shape == (5, 240) and levels.size == 5 * 240
    assert not levels.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        levels[0, 0] = 1
    path = tmp_path / "raster.pgm"
    export_pgm(str(path), holo)
    assert path.read_bytes() == pgm_bytes(np.array(levels))


def test_encoding_and_export_hold_one_raster_row(tmp_path):
    # a 1920 x 1080 frame is 2 MB of levels; the encoder keeps one row and
    # the export streams it row by row
    cfg = load_config(HOLOGRAM)
    hs = cfg.hologram
    target = pump_field(cfg.pump, hs.pixel_coordinates() / hs.magnification).values
    path = tmp_path / "hologram.pgm"
    export_pgm(str(path), encode_hologram(target, hs))  # one-off costs outside the trace
    _, peak = traced_peak(lambda: export_pgm(str(path), encode_hologram(target, hs)))
    assert (hs.width_px, hs.height_px) == (1920, 1080)
    assert peak < 0.25 * hs.width_px * hs.height_px
    assert path.stat().st_size == len(f"P5 1920 1080 255\n") + 1920 * 1080
