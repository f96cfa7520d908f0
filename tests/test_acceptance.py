"""End-to-end acceptance checks for the simulator.

Each test covers one headline behavior and prints a single
``[PASS] name`` / ``[FAIL] name`` line (visible with ``pytest -s``).
Tolerances are fixed here on purpose; loosening them is a contract change.
"""

import contextlib
import copy
import dataclasses
import math
import os

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_modes import detection
from spdc_modes.config import load_config, parse_config
from spdc_modes.detection import (
    coincidence_scan,
    crosstalk_matrix,
    fedorov_ratio,
    find_peaks,
    fwhm_of,
    gaussian_mode_log_intensities,
    singles_scan,
    wavelength_average,
)
from spdc_modes.hologram import (
    HologramSettings,
    amplitude_overlap,
    encode_hologram,
    envelope_fwhm,
    pump_field,
    simulate_first_order,
)
from spdc_modes.kernel import (
    MultiPeakParams,
    build_double_gaussian,
    build_multipeak,
    default_grid,
)
from spdc_modes.optics import (
    GAUSSIAN_FWHM_FACTOR,
    PhaseMatchConfig,
    WavevectorGrid,
    fwhm_to_sigma_k,
    noncollinear_offset,
    phase_matching_width,
)
from spdc_modes.schmidt import schmidt_decompose, schmidt_number

from oracles import (
    analytic_double_gaussian,
    double_gaussian_modes,
    linear_crosstalk,
    reconstruct_kernel,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SINGLE = os.path.join(CONFIG_DIR, "single_mode.yaml")
THREE = os.path.join(CONFIG_DIR, "three_modes.yaml")
CROSSTALK = os.path.join(CONFIG_DIR, "crosstalk.yaml")

# pump width of a 250 um FWHM envelope, the matched operating point
SIGMA = 0.009419280180123796


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_schmidt_number_and_spectrum_match_closed_form():
    with criterion("schmidt-number-closed-form"):
        for ratio in (1.0, 1.5, 2.0, 5.0, 10.0):
            a, b = SIGMA, ratio * SIGMA
            grid = WavevectorGrid.centered(0.0, 5.0 * max(a, b), 512)
            dec = schmidt_decompose(build_double_gaussian(a, b, grid))
            got_k = schmidt_number(dec).schmidt_number
            expected_k = (a * a + b * b) / (2.0 * a * b)
            assert got_k == pytest.approx(expected_k, rel=1e-3)
            mu = ((b - a) / (b + a)) ** 2
            expected = (1.0 - mu) * mu ** np.arange(10)
            lam = np.zeros(10)
            lam[:min(10, dec.n_modes)] = dec.coefficients[:10] ** 2
            assert np.allclose(lam, expected, atol=1e-4)


def test_matched_widths_give_a_single_mode():
    with criterion("single-mode-regime"):
        cfg = load_config(SINGLE)
        kernel = build_multipeak(cfg.pump, cfg.grid)
        dec = schmidt_decompose(kernel)
        assert dec.coefficients[0] ** 2 >= 0.9999
        # finite slits from the config, not the zero-width idealization
        inten = kernel.intensity
        assert fedorov_ratio(inten, cfg.geometry.slit_windows(),
                             cfg.pump.mode_spacing()) == pytest.approx(1.0, abs=0.02)


def test_modes_are_hermite_gauss():
    with criterion("hermite-gauss-mode-shapes"):
        a, b = SIGMA, 2.0 * SIGMA
        grid = WavevectorGrid.centered(0.0, 6.0 * b, 512)
        dec = schmidt_decompose(build_double_gaussian(a, b, grid))
        signal, idler = double_gaussian_modes(a, b, 6, grid)
        for m in range(6):
            s = float(np.sum(dec.signal_modes[m].real * signal[m]) * grid.spacing)
            i = float(np.sum(dec.idler_modes[m].real * idler[m]) * grid.spacing)
            assert abs(s) > 0.999
            assert abs(i) > 0.999
            assert s * i > 0.998


def test_three_peak_spectrum_and_slit_selection():
    with criterion("three-peak-correlations"):
        cfg = load_config(THREE)
        inten = build_multipeak(cfg.pump, cfg.grid).intensity
        step = inten.grid_s.spacing
        singles = singles_scan(inten, None)
        pos, height = find_peaks(singles, min_height_frac=0.05)
        assert pos.size == 3
        assert np.allclose(np.diff(np.sort(pos)), 0.168, atol=step)
        order = np.argsort(height)[::-1]
        # center field 1, side fields 0.63, heights are squared fields
        assert height[order[0]] / height[order[1]] == pytest.approx((1.0 / 0.63) ** 2, rel=0.05)

        idler = singles_scan(inten.swapped, None)
        ipos, _ = find_peaks(idler, min_height_frac=0.05)
        assert ipos.size == 3
        for p in ipos:
            coinc = coincidence_scan(inten, p, None, None)
            cpos, _ = find_peaks(coinc, min_height_frac=0.05)
            assert cpos.size == 1
            assert cpos[0] == pytest.approx(p + cfg.pump.noncollinear_offset, abs=2.0 * step)


def test_crosstalk_is_negligible_and_log_safe():
    with criterion("mode-crosstalk-bound"):
        cfg = load_config(CROSSTALK)
        params = cfg.pump
        grid_s = cfg.grid
        scale = math.sqrt(params.sigma_pump * params.sigma_match / 2.0)
        centers = params.mode_offsets() + params.noncollinear_offset / 2.0
        logs = gaussian_mode_log_intensities(centers, scale, grid_s)
        matrix = crosstalk_matrix(logs, grid_s)
        off = ~np.eye(matrix.values.shape[0], dtype=bool)
        assert matrix.log10()[off].max() < -41.0

        # linear and log paths agree where the linear one still has headroom
        check = WavevectorGrid.centered(0.06, 0.5, 3001)
        s = 0.01
        logs4 = gaussian_mode_log_intensities([0.0, 4.0 * s], s, check)
        via_log = crosstalk_matrix(logs4, check)
        direct = linear_crosstalk(np.exp(logs4), check)
        assert via_log.values[0, 1] == pytest.approx(direct[0, 1], rel=1e-10)


def test_crosstalk_matches_the_closed_form_gaussian_law():
    # unit-norm HG0 intensities exp(-(k - c)^2 / s^2) overlap as
    # X_mn = exp(-(c_m - c_n)^2 / s^2), on the shipped comb and a 64-peak one
    with criterion("crosstalk-closed-form"):
        with open(CROSSTALK, "r", encoding="utf-8") as fh:
            shipped = yaml.safe_load(fh)
        comb = copy.deepcopy(shipped)
        comb["pump"] = {"peaks": 64, "peak_spacing_um_inv": 0.12,
                        "envelope_fwhm_um": 100.0, "matching_width": "derived"}
        comb["grid"] = {"points": 2048, "span_sigmas": 8.0}
        for data in (shipped, comb):
            cfg = parse_config(data)
            grid_s = cfg.grid
            scale = analytic_double_gaussian(cfg.pump.sigma_pump, cfg.pump.sigma_match).mode_scale
            centers = cfg.pump.mode_offsets() + cfg.pump.noncollinear_offset / 2.0
            logs = gaussian_mode_log_intensities(centers, scale, grid_s)
            matrix = crosstalk_matrix(logs, grid_s)
            oracle = -((centers[:, None] - centers[None, :]) / scale) ** 2
            np.testing.assert_allclose(matrix.log_values, oracle, rtol=1e-12, atol=0.0)


def test_filter_bandwidth_broadens_the_singles(monkeypatch):
    with criterion("filter-bandwidth-broadening"):
        pm = PhaseMatchConfig(3000.0, 0.405, 1.6602583173171748, 1.6579880614409859)
        offset = noncollinear_offset(pm).offset_um_inv
        params = MultiPeakParams((1.0,), 0.0, offset, fwhm_to_sigma_k(246.0),
                                 phase_matching_width(pm))
        grid = default_grid(params, 512, 6.0)

        def builder(off):
            return build_multipeak(dataclasses.replace(params, noncollinear_offset=off),
                                   grid).intensity

        geom = load_config(SINGLE).geometry
        window = (offset / 2.0 - 0.06, offset / 2.0 + 0.06)

        def signal_fwhm(source):
            return fwhm_of(singles_scan(source, None), window=window)

        mono = signal_fwhm(builder(offset))
        w21 = signal_fwhm(wavelength_average(pm, geom, params, grid))
        monkeypatch.setattr(detection, "FILTER_SAMPLES", 42)
        w42 = signal_fwhm(wavelength_average(pm, geom, params, grid))
        assert w21 > mono
        assert abs(w42 / w21 - 1.0) < 0.01


def test_hologram_round_trip_recovers_the_pump():
    with criterion("hologram-round-trip"):
        mag = 20.0
        width = 1920
        slm = HologramSettings(width, 8, 8.0, 6.0, mag)
        sigma = GAUSSIAN_FWHM_FACTOR / 246.0
        params = MultiPeakParams((0.63, 1.0, 0.63), 0.168, 0.0, sigma, sigma)
        target = pump_field(params, slm.pixel_coordinates() / mag).values
        holo = encode_hologram(target, slm)
        replay = simulate_first_order(holo)
        assert amplitude_overlap(replay.values, target) > 0.99
        recovered = envelope_fwhm(replay, split_frequency=0.168 / mag) / mag
        assert recovered == pytest.approx(246.0, rel=0.02)

        flat = np.ones(width, dtype=complex)
        levels = encode_hologram(flat, HologramSettings(width, 4, 8.0, 6.0)).phase_levels
        assert np.array_equal(levels[:, 6:], levels[:, :-6])


@settings(derandomize=True, max_examples=8, deadline=None)
@given(a=st.floats(0.5, 2.0), ratio=st.floats(0.25, 4.0))
def _norm_and_orthogonality(a, ratio):
    b = a * ratio
    wide = max(a, b)

    def solve(n):
        grid = WavevectorGrid.centered(0.0, 5.0 * wide, n)
        kernel = build_double_gaussian(a, b, grid)
        norm = np.sum(np.abs(kernel.amplitude) ** 2) * grid.spacing ** 2
        return kernel, grid, norm

    kernel, grid, norm = solve(256)
    assert abs(norm - 1.0) < 1e-10

    dec = schmidt_decompose(kernel)
    n_check = min(8, dec.n_modes)
    for modes in (dec.signal_modes, dec.idler_modes):
        block = modes[:n_check].real
        gram = block @ block.T * grid.spacing
        assert np.max(np.abs(gram - np.eye(n_check))) < 1e-8

    # the kept modes rebuild the kernel up to exactly the weight they discard
    err2 = np.sum(np.abs(reconstruct_kernel(dec) - kernel.amplitude) ** 2) * grid.spacing ** 2
    assert err2 == pytest.approx(dec.discarded_weight, abs=1e-12)

    kernel_fine, grid_fine, _ = solve(384)
    k_coarse = schmidt_number(schmidt_decompose(kernel)).schmidt_number
    k_fine = schmidt_number(schmidt_decompose(kernel_fine)).schmidt_number
    assert abs(k_coarse - k_fine) < 1e-4
    c = dec.coefficients[:5]
    # the fine grid's leading singular values, however many modes it keeps
    c_fine = np.linalg.svd(kernel_fine.amplitude, compute_uv=False)[:c.size] * grid_fine.spacing
    assert np.max(np.abs(c - c_fine)) < 1e-4


def test_normalization_and_orthogonality_properties():
    with criterion("normalization-and-orthogonality"):
        _norm_and_orthogonality()
