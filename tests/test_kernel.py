"""Joint-amplitude builders: normalization, structure, pump plumbing."""

import dataclasses
import math
import os

import numpy as np
import pytest
import yaml

from spdc_modes import hologram
from spdc_modes.cli import main
from spdc_modes.config import load_config
from spdc_modes.kernel import (
    JointIntensity,
    MultiPeakParams,
    TpaKernel,
    build_double_gaussian,
    build_from_pump,
    build_multipeak,
    default_grid,
    marginal_intensity,
    multipeak_intensity,
    pump_spectrum_from_field,
    sum_coordinate_grid,
)
from spdc_modes.optics import (
    PhaseMatchConfig,
    PumpWidths,
    WavevectorGrid,
    noncollinear_offset,
    phase_matching_width,
)

SIGMA = 0.009419280180123796  # 250 um envelope
SINGLE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "single_mode.yaml")
THREE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "three_modes.yaml")


def centered(half, n=256):
    return WavevectorGrid.centered(0.0, half, n)


def test_normalization_unit_integral():
    widths = PumpWidths(SIGMA, 2.0 * SIGMA)
    kernel = build_double_gaussian(widths, centered(5 * 2 * SIGMA, 256))
    total = np.sum(np.abs(kernel.amplitude) ** 2) * kernel.grid_s.spacing * kernel.grid_i.spacing
    assert total == pytest.approx(1.0, abs=1e-12)
    assert kernel.norm() == pytest.approx(1.0, abs=1e-12)


def test_matched_widths_kernel_is_separable():
    widths = PumpWidths(SIGMA, SIGMA)
    kernel = build_double_gaussian(widths, centered(5 * SIGMA, 128))
    amp = kernel.amplitude
    i0 = amp.shape[0] // 2
    outer = np.outer(amp[:, i0], amp[i0, :]) / amp[i0, i0]
    assert np.allclose(amp, outer, rtol=1e-12, atol=1e-300)


def test_single_peak_reduces_to_double_gaussian():
    widths = PumpWidths(SIGMA, 1.7 * SIGMA)
    grid = centered(5 * 1.7 * SIGMA, 200)
    params = MultiPeakParams((1.0,), 0.0, 0.0, widths)
    multi = build_multipeak(params, grid)
    ks = grid.points()[:, None]
    ki = grid.points()[None, :]
    closed = np.exp(-((ks + ki) ** 2) / (2.0 * widths.sigma_pump ** 2)
                    - ((ks - ki) ** 2) / (2.0 * widths.sigma_match ** 2))
    closed /= np.sqrt(np.sum(closed ** 2) * grid.spacing ** 2)
    assert np.allclose(multi.amplitude, closed, rtol=1e-12, atol=0.0)


def test_mode_offsets_centers_weights():
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.168, 1.347, PumpWidths(SIGMA, SIGMA))
    assert params.n_peaks == 3
    assert np.allclose(params.mode_offsets(), [0.168, 0.0, -0.168])
    assert np.allclose(params.pump_centers(), [0.336, 0.0, -0.336])
    # each peak's Gaussian in the pump comb carries its own amplitude
    assert params.pump_factor(params.pump_centers()) == pytest.approx([0.63, 1.0, 0.63],
                                                                      rel=1e-12)
    uniform = MultiPeakParams((1.0,) * 4, 0.1, 0.0, PumpWidths(1.0, 1.0))
    assert uniform.n_peaks == 4
    assert np.allclose(uniform.mode_offsets(), [0.15, 0.05, -0.05, -0.15])


def test_multipeak_param_validation():
    w = PumpWidths(1.0, 1.0)
    with pytest.raises(ValueError, match="at least one"):
        MultiPeakParams((), 0.1, 0.0, w)
    with pytest.raises(ValueError, match="spacing"):
        MultiPeakParams((1.0, 1.0), 0.0, 0.0, w)
    with pytest.raises(ValueError, match="branch sign"):
        MultiPeakParams((1.0,), 0.0, -1.0, w)


def test_resolution_refusal_names_point_count():
    widths = PumpWidths(SIGMA, SIGMA)
    with pytest.raises(ValueError, match="points"):
        build_double_gaussian(widths, WavevectorGrid.centered(0.0, 50 * SIGMA, 16))


def test_coverage_warning_on_narrow_grid():
    widths = PumpWidths(SIGMA, SIGMA)
    kernel = build_double_gaussian(widths, centered(2 * SIGMA, 64))
    assert any("clips" in w for w in kernel.warnings)
    wide = build_double_gaussian(widths, centered(6 * SIGMA, 64))
    assert wide.warnings == ()


def test_overlapping_peaks_warn_but_proceed():
    widths = PumpWidths(SIGMA, SIGMA)
    params = MultiPeakParams((1.0, 1.0, 1.0), 3.0 * SIGMA, 0.0, widths)
    grid = centered(3.0 * SIGMA + 5 * SIGMA, 256)
    kernel = build_multipeak(params, grid)
    assert any("overlap" in w for w in kernel.warnings)
    assert kernel.norm() == pytest.approx(1.0, abs=1e-12)


def test_default_grids_center_on_branch():
    def center(grid):
        return 0.5 * (grid.k_min + grid.k_max)

    params = MultiPeakParams((1.0, 1.0, 1.0), 0.168, 1.347, PumpWidths(SIGMA, SIGMA))
    gs = default_grid(params, 128, 5.0)
    gi = gs.mirrored()
    assert center(gs) == pytest.approx(1.347 / 2)
    assert center(gi) == pytest.approx(-1.347 / 2)
    assert gs.covers(1.347 / 2 - 0.168, 1.347 / 2 + 0.168)
    both = MultiPeakParams((1.0,) * 3, 0.168, 1.347, PumpWidths(SIGMA, SIGMA), branch="both")
    gs_b = default_grid(both, 128, 5.0)
    assert center(gs_b) == 0.0 and center(gs_b.mirrored()) == 0.0
    assert gs_b.covers(-1.347 / 2, 1.347 / 2)
    # one mode set per ring; at zero offset the rings coincide and hold one set
    assert both.signal_centers() == pytest.approx(
        [1.347 / 2 + 0.168, 1.347 / 2, 1.347 / 2 - 0.168,
         -1.347 / 2 + 0.168, -1.347 / 2, -1.347 / 2 - 0.168])
    collinear = dataclasses.replace(both, noncollinear_offset=0.0)
    assert collinear.signal_centers() == pytest.approx([0.168, 0.0, -0.168])


def test_both_branches_point_symmetric():
    widths = PumpWidths(SIGMA, SIGMA)
    params = MultiPeakParams((1.0,), 0.0, 0.2, widths, branch="both")
    kernel = build_multipeak(params, default_grid(params, 129, 5.0))
    assert np.allclose(kernel.amplitude, kernel.amplitude[::-1, ::-1], rtol=1e-12, atol=0.0)


def test_bad_branch_rejected():
    # the pump is the one place that checks its branch; the builders read it from there
    with pytest.raises(ValueError, match=r"^branch must be one of \('\+', 'both'\), got 'x'$"):
        MultiPeakParams((1.0,), 0.0, 0.2, PumpWidths(SIGMA, SIGMA), branch="x")


def test_from_profiles_validation():
    grid = centered(1.0, 32)
    ones = np.ones(63)
    bad = ones.copy()
    bad[3] = np.nan
    for build in (TpaKernel.from_profiles, JointIntensity.from_profiles):
        with pytest.raises(ValueError, match="finite"):
            build(grid, bad, ones)
        with pytest.raises(ValueError, match="finite"):
            build(grid, ones, bad)
        with pytest.raises(ValueError, match="identically zero"):
            build(grid, np.zeros(63), ones)
        # the pump only at ks + ki = its lowest node, the matching only at the
        # lowest ks - ki: no joint node holds both, so every product is zero
        pump, match = np.zeros(63), np.zeros(63)
        pump[0] = match[0] = 1.0
        with pytest.raises(ValueError, match="identically zero"):
            build(grid, pump, match)
    with pytest.raises(ValueError, match="shape"):
        TpaKernel(grid, np.ones((32, 31)))


def test_profiles_of_extreme_magnitude_normalize():
    # squares of these would overflow or underflow; the unit-peak scaling keeps them
    grid = centered(1.0, 32)
    k = sum_coordinate_grid(grid).points()
    shape = np.exp(-k ** 2)
    reference = TpaKernel.from_profiles(grid, shape, shape)
    for scale in (1e200, 1e-200):
        kernel = TpaKernel.from_profiles(grid, scale * shape, scale * shape)
        assert kernel.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(kernel.amplitude, reference.amplitude, rtol=1e-14, atol=0.0)


def test_real_models_build_real_kernels():
    widths = PumpWidths(SIGMA, 1.7 * SIGMA)
    grid = centered(5 * 1.7 * SIGMA, 80)
    assert build_double_gaussian(widths, grid).amplitude.dtype == np.float64
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.168, 1.347, PumpWidths(SIGMA, SIGMA))
    assert build_multipeak(params, default_grid(params, 256, 5.0)).amplitude.dtype == np.float64

    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.6614, regime="collinear")
    tk = sum_coordinate_grid(grid).points()
    chirped = np.exp(-tk ** 2 / (2 * SIGMA ** 2) + 30j * tk)
    resolved = MultiPeakParams((1.0,), 0.0, 0.0, PumpWidths(SIGMA, 1.7 * SIGMA))
    kernel = build_from_pump(chirped, resolved, cfg, grid, "gaussian")
    assert kernel.amplitude.dtype == np.complex128
    assert np.abs(kernel.amplitude.imag).max() > 0


@pytest.mark.parametrize("model", ["gaussian", "sinc"])
def test_real_pump_spectrum_builds_a_real_kernel(model):
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.6614, regime="collinear")
    grid = centered(5 * 1.7 * SIGMA, 80)
    tk = sum_coordinate_grid(grid).points()
    real = np.exp(-tk ** 2 / (2 * SIGMA ** 2))
    # the same samples held as complex, so the builder takes its complex path
    promoted = real.astype(complex)
    resolved = MultiPeakParams((1.0,), 0.0, 0.0, PumpWidths(SIGMA, 1.7 * SIGMA))
    kernel = build_from_pump(real, resolved, cfg, grid, model)
    reference = build_from_pump(promoted, resolved, cfg, grid, model)
    assert kernel.amplitude.dtype == np.float64
    assert reference.amplitude.dtype == np.complex128
    assert np.array_equal(kernel.amplitude, reference.amplitude.real)


def test_from_profiles_real_input_matches_its_complex_promotion():
    grid = centered(1.0, 48)
    k = sum_coordinate_grid(grid).points()
    pump = np.exp(-k ** 2 / 0.1) * (1.0 + k)
    match = np.exp(-(k - 0.2) ** 2 / 0.3)
    real = TpaKernel.from_profiles(grid, pump, match)
    promoted = TpaKernel.from_profiles(grid, pump.astype(complex), match)
    assert real.amplitude.dtype == np.float64
    assert np.array_equal(real.amplitude, promoted.amplitude.real)
    real_i = JointIntensity.from_profiles(grid, pump, match)
    promoted_i = JointIntensity.from_profiles(grid, pump.astype(complex), match)
    assert np.array_equal(real_i.at_sums, promoted_i.at_sums)
    assert np.array_equal(real_i.at_differences, promoted_i.at_differences)


def test_marginal_intensity_integrates_to_one():
    widths = PumpWidths(SIGMA, 2 * SIGMA)
    grid = centered(10 * SIGMA, 256)
    inten = multipeak_intensity(MultiPeakParams((1.0,), 0.0, 0.0, widths), grid)
    k, m = marginal_intensity(inten, "signal")
    assert np.sum(m) * grid.spacing == pytest.approx(1.0, abs=1e-12)
    # marginal of the double Gaussian is Gaussian with variance (a^2+b^2)/8
    var = np.sum(m * k ** 2) * grid.spacing
    assert var == pytest.approx((SIGMA ** 2 + 4 * SIGMA ** 2) / 8.0, rel=1e-9)
    with pytest.raises(ValueError, match="which"):
        marginal_intensity(inten, "pump")


def test_sum_coordinate_grid_nodes():
    gs = WavevectorGrid(0.1, 0.35, 26)
    gi = gs.mirrored()
    assert (gi.k_min, gi.k_max, gi.n_points) == (-0.35, -0.1, 26)
    total = sum_coordinate_grid(gs)
    assert total.n_points == 51
    assert total.spacing == pytest.approx(gs.spacing, rel=1e-12)
    # the endpoint sums of the grid and its mirror, to the bit
    assert (total.k_min, total.k_max) == (gs.k_min + gi.k_min, gs.k_max + gi.k_max)
    # every pairwise sum lands on a node
    sums = gs.points()[:, None] + gi.points()[None, :]
    nodes = total.points()
    idx = np.rint((sums - total.k_min) / total.spacing).astype(int)
    assert np.allclose(nodes[idx], sums, atol=1e-12)


def test_build_from_pump_matches_multipeak():
    widths = PumpWidths(SIGMA, 0.0031701009425325415)
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    offset = 8.679653687096893
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.168, offset, widths)
    grid = default_grid(params, 640, 5.0)
    direct = build_multipeak(params, grid)

    tk = sum_coordinate_grid(grid).points()
    pump = np.zeros_like(tk)
    for a, c in zip(params.amplitudes, params.pump_centers()):
        pump += a * np.exp(-((tk - c) ** 2) / (2.0 * widths.sigma_pump ** 2))
    resolved = MultiPeakParams((1.0,), 0.0, noncollinear_offset(cfg).offset_um_inv,
                               PumpWidths(SIGMA, widths.sigma_match))
    rebuilt = build_from_pump(pump, resolved, cfg, grid, "gaussian")
    assert np.max(np.abs(rebuilt.amplitude - direct.amplitude)) < 1e-10 * np.abs(direct.amplitude).max()


def test_pump_spectrum_from_field_gaussian():
    sigma_k = 0.02
    x = np.linspace(-8 / sigma_k, 8 / sigma_k, 4001)
    field = np.exp(-(x ** 2) * sigma_k ** 2 / 2.0)
    grid = WavevectorGrid.centered(0.0, 4 * sigma_k, 161)
    spec = pump_spectrum_from_field(x, field, grid)
    k = grid.points()
    expected = math.sqrt(2.0 * math.pi) / sigma_k * np.exp(-(k ** 2) / (2.0 * sigma_k ** 2))
    # transform is real up to roundoff and matches the analytic Gaussian
    assert spec.dtype == np.complex128 and spec.shape == k.shape
    unit = spec / math.sqrt(np.trapezoid(np.abs(spec) ** 2, k))
    assert np.max(np.abs(unit.imag)) < 1e-9
    assert np.max(np.abs(spec.real - expected)) < 1e-7 * expected.max()


def test_pump_spectrum_from_field_validation():
    x = np.linspace(-1, 1, 64)
    grid = centered(1.0, 32)
    with pytest.raises(ValueError, match="matching"):
        pump_spectrum_from_field(x, np.ones(63), grid)
    with pytest.raises(ValueError, match="increasing"):
        pump_spectrum_from_field(x[::-1], np.ones(64), grid)


def test_pump_field_spectrum_rebuilds_the_kernel():
    # crystal-plane field -> spectrum on the sum nodes -> kernel, against the
    # closed-form multi-peak build of the same run
    cfg = load_config(THREE)
    span = 4.5 / cfg.pump.widths.sigma_pump
    field = hologram.pump_field(cfg.pump, np.linspace(-span, span, 4096))
    grid = cfg.grid()
    spectrum = pump_spectrum_from_field(field.coordinates_um, field.amplitude,
                                        sum_coordinate_grid(grid))
    kernel = build_from_pump(spectrum, cfg.pump, cfg.phase_match, grid, "gaussian")
    direct = cfg.build_kernel()
    overlap = abs(np.vdot(kernel.amplitude, direct.amplitude)) * grid.spacing ** 2
    assert overlap >= 1.0 - 1e-9
    short = spectrum[1:]
    with pytest.raises(ValueError, match=rf"shape \({short.size},\); need {spectrum.size} samples"):
        build_from_pump(short, cfg.pump, cfg.phase_match, grid)


def test_sinc_vs_gaussian_noncollinear_fwhm():
    """Anti-diagonal cut through the sinc kernel vs its Gaussian stand-in.

    Along ks + ki = 0 the pump factor is constant, so the cut profiles the
    matching factor alone; the intensity FWHM ratio sinc/Gaussian is
    2*1.3915574 / (2*sqrt(ln 2)*sqrt(0.39)) = 1.0439 for the linearized
    noncollinear mismatch.
    """
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    offset = 8.679653687096893
    sigma_match = 0.0031701009425325415
    half = 4.0 * sigma_match
    n = 1601
    gs = WavevectorGrid.centered(offset / 2.0, half, n)

    tk = sum_coordinate_grid(gs).points()
    pump = np.exp(-(tk ** 2) / (2.0 * 0.01 ** 2))

    def antidiag_fwhm(kernel):
        prof = np.abs(np.diagonal(kernel.amplitude[:, ::-1])) ** 2
        delta = 2.0 * kernel.grid_s.points()  # ks - ki = 2 ks on this cut
        half_max = prof.max() / 2.0
        above = np.flatnonzero(prof >= half_max)
        i, j = above[0], above[-1]
        left = np.interp(half_max, prof[i - 1:i + 1], delta[i - 1:i + 1])
        right = np.interp(half_max, prof[j + 1:j - 1:-1], delta[j + 1:j - 1:-1])
        return right - left

    resolved = MultiPeakParams((1.0,), 0.0, noncollinear_offset(cfg).offset_um_inv,
                               PumpWidths(0.01, phase_matching_width(cfg)))
    gauss = build_from_pump(pump, resolved, cfg, gs, "gaussian")
    sinc = build_from_pump(pump, resolved, cfg, gs, "sinc")
    ratio = antidiag_fwhm(sinc) / antidiag_fwhm(gauss)

    slope = cfg.crystal_length_um * offset / (4.0 * cfg.signal_wavevector)
    oracle = (2.0 * 1.3915574 / slope) / (2.0 * sigma_match * math.sqrt(math.log(2.0)))
    assert ratio == pytest.approx(oracle, rel=1e-2)
    assert ratio == pytest.approx(1.044, rel=0.10)


def test_sinc_collinear_matches_gaussian_fit_width():
    lam_p = 0.405
    n_pump = 24.0 * lam_p / (2.0 * math.pi)
    cfg = PhaseMatchConfig(3000.0, lam_p, 1.6, n_pump, regime="collinear")
    sigma_match = math.sqrt(96.0 / 747.0)

    n = 1201
    grid = WavevectorGrid.centered(0.0, 4.0 * sigma_match, n)
    tk = sum_coordinate_grid(grid).points()
    pump = np.exp(-(tk ** 2) / 2.0)

    resolved = MultiPeakParams((1.0,), 0.0, 0.0, PumpWidths(1.0, phase_matching_width(cfg)),
                               branch="both")
    gauss = build_from_pump(pump, resolved, cfg, grid, "gaussian")
    sinc = build_from_pump(pump, resolved, cfg, grid, "sinc")

    def antidiag_fwhm(kernel):
        prof = np.abs(np.diagonal(kernel.amplitude[:, ::-1])) ** 2
        delta = 2.0 * kernel.grid_s.points()
        half_max = prof.max() / 2.0
        above = np.flatnonzero(prof >= half_max)
        i, j = above[0], above[-1]
        left = np.interp(half_max, prof[i - 1:i + 1], delta[i - 1:i + 1])
        right = np.interp(half_max, prof[j + 1:j - 1:-1], delta[j + 1:j - 1:-1])
        return right - left

    # the 0.249 fit was chosen to equalize intensity FWHMs, so ratio ~ 1
    assert antidiag_fwhm(sinc) / antidiag_fwhm(gauss) == pytest.approx(1.0, abs=1e-2)


def test_collinear_sinc_refuses_an_offset_ring():
    # the collinear sinc peaks at ks - ki = 0; on the override ring it put the
    # kernel on a side lobe, at 1.182 where the Gaussian model peaks at 1.2
    run = load_config(SINGLE, {"phase_match.regime": "collinear",
                               "phase_match.offset_override_um_inv": 1.2})
    gs = run.grid()
    gi = gs.mirrored()
    tk = sum_coordinate_grid(gs).points()
    pump = np.exp(-(tk ** 2) / (2.0 * run.pump.widths.sigma_pump ** 2))
    gauss = build_from_pump(pump, run.pump, run.phase_match, gs, "gaussian")
    i, j = np.unravel_index(np.argmax(np.abs(gauss.amplitude)), gauss.amplitude.shape)
    assert gs.points()[i] - gi.points()[j] == pytest.approx(1.2, abs=2 * gs.spacing)
    with pytest.raises(ValueError, match="collinear sinc profile .* offset 1.2 1/um"):
        build_from_pump(pump, run.pump, run.phase_match, gs, "sinc")


def test_build_from_pump_rejects_bad_model():
    grid = centered(1.0, 32)
    pump = np.exp(-sum_coordinate_grid(grid).points() ** 2)
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    resolved = MultiPeakParams((1.0,), 0.0, noncollinear_offset(cfg).offset_um_inv,
                               PumpWidths(1.0, phase_matching_width(cfg)))
    with pytest.raises(ValueError, match="model"):
        build_from_pump(pump, resolved, cfg, grid, "cosine")


@pytest.mark.parametrize("flags", [(), ("--grid-points", "841", "--both-branches")],
                         ids=["three_modes", "three_modes-841-both"])
def test_idler_grid_and_marginal_mirror_the_signal(tmp_path, capsys, flags):
    # a run carries one grid: the idler grid is the signal grid negated, and
    # with the shipped comb symmetric, P(-x) = P(x), the idler marginal read
    # backwards is the signal marginal
    assert main(["tpa", "--config", THREE, "--out", str(tmp_path), *flags]) == 0
    capsys.readouterr()
    meta = yaml.safe_load((tmp_path / "kernel.meta.yaml").read_text())
    signal = meta["signal_grid"]
    assert meta["idler_grid"] == {"k_min": -signal["k_max"], "k_max": -signal["k_min"],
                                  "n_points": signal["n_points"]}

    overrides = {"grid.points": 841, "grid.both_branches": True} if flags else {}
    inten = load_config(THREE, overrides).intensity()
    _, m_s = marginal_intensity(inten, "signal")
    _, m_i = marginal_intensity(inten, "idler")
    assert m_s.size == signal["n_points"]
    assert np.max(np.abs(m_i[::-1] - m_s)) <= 1e-13 * m_s.max()
