"""Far-field scans, widths, spectral averaging, and mode crosstalk."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from spdc_modes.config import load_config
from spdc_modes.detection import (
    DetectionGeometry,
    ScanSpectrum,
    coincidence_scan,
    crosstalk_matrix,
    effective_offset,
    fedorov_ratio,
    find_peaks,
    fwhm_of,
    gaussian_mode_log_intensities,
    idler_peak_center,
    ring_wavevector,
    singles_scan,
    wavelength_average,
)
from spdc_modes.kernel import (
    MIN_COVER_SIGMAS,
    JointIntensity,
    MultiPeakParams,
    build_double_gaussian,
    build_multipeak,
    default_grids,
    marginal_intensity,
)
from spdc_modes.optics import (
    GAUSSIAN_FWHM_FACTOR,
    PhaseMatchConfig,
    PumpWidths,
    SellmeierAxis,
    SellmeierCoefficients,
    WavevectorGrid,
    fwhm_to_sigma_k,
    noncollinear_offset,
    phase_matching_width,
)
from spdc_modes.schmidt import hermite_gauss

GEOM = DetectionGeometry()
THREE_MODES = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "three_modes.yaml")

# degenerate type-I cut, frozen from the Sellmeier data used in the configs
N_SIGNAL = 1.6602583173171748
N_PUMP = 1.6579880614409859


def ratio_two_intensity(n=2001, span=6.0):
    widths = PumpWidths(1.0, 2.0)
    grid = WavevectorGrid.centered(0.0, span * 2.0, n)
    return build_double_gaussian(widths, grid).intensity()


def test_slit_acceptance_matches_geometry():
    r = GEOM.slit_acceptance("signal")
    assert r == pytest.approx(2.0 * math.pi / 0.81 * (0.2 / 100.0), rel=1e-12)
    assert GEOM.slit_acceptance("idler") == pytest.approx(2.0 * r, rel=1e-12)
    assert GEOM.position_to_wavevector(1.0) == pytest.approx(
        2.0 * math.pi / 0.81 * (1.0 / 100.0), rel=1e-12)
    with pytest.raises(ValueError, match="which"):
        GEOM.slit_acceptance("pump")


def test_geometry_validation():
    with pytest.raises(ValueError, match="focal_length_mm"):
        DetectionGeometry(focal_length_mm=0.0)
    with pytest.raises(ValueError, match="filter_fwhm_nm"):
        DetectionGeometry(filter_fwhm_nm=-1.0)
    with pytest.raises(ValueError, match="medium index"):
        DetectionGeometry(medium_index=0.9)


def test_zero_width_singles_equals_marginal():
    inten = ratio_two_intensity(n=401)
    scan = singles_scan(inten, GEOM, "signal", zero_width=True)
    k, marg = marginal_intensity(inten, "signal")
    assert np.array_equal(scan.positions, k)
    assert np.array_equal(scan.rates, marg)
    scan_i = singles_scan(inten, GEOM, "idler", zero_width=True)
    _, marg_i = marginal_intensity(inten, "idler")
    assert np.array_equal(scan_i.rates, marg_i)


def test_finite_slit_tophat_gives_trapezoid():
    # top-hat marginal of width 0.4 scanned with an r-wide slit
    gs = WavevectorGrid.centered(0.0, 1.0, 2001)
    gi = WavevectorGrid.centered(0.0, 1.0, 201)
    ks = gs.points()[:, None]
    ki = gi.points()[None, :]
    w = 0.4
    values = np.where(np.abs(ks) <= w / 2.0, 1.0, 0.0) * np.exp(-ki ** 2 / 0.02)
    inten = JointIntensity(gs, gi, values)

    geom = DetectionGeometry(slit_width_signal_mm=1.0)
    r = geom.slit_acceptance("signal")
    assert r < w
    scan = singles_scan(inten, geom, "signal")
    x = scan.positions
    height = np.exp(-gi.points() ** 2 / 0.02).sum() * gi.spacing
    oracle = height * r * np.clip((w / 2.0 + r / 2.0 - np.abs(x)) / r, 0.0, 1.0)
    assert np.max(np.abs(scan.rates - oracle)) < height * gs.spacing
    assert fwhm_of(scan) == pytest.approx(w, abs=2.0 * gs.spacing)


def test_fwhm_gaussian_interp_and_fit():
    inten = ratio_two_intensity(n=4001)
    scan = singles_scan(inten, GEOM, "signal", zero_width=True)
    sigma_marginal = math.sqrt((1.0 + 4.0) / 8.0)
    oracle = GAUSSIAN_FWHM_FACTOR * sigma_marginal
    assert fwhm_of(scan) == pytest.approx(oracle, rel=1e-4)


def test_fwhm_disjoint_peaks_need_window():
    x = np.linspace(-6.0, 6.0, 1201)
    rates = np.exp(-((x - 2.0) ** 2) / 0.5) + np.exp(-((x + 2.0) ** 2) / 0.5)
    scan = ScanSpectrum(x, rates)
    with pytest.raises(ValueError, match="disjoint"):
        fwhm_of(scan)
    width = fwhm_of(scan, window=(0.0, 6.0))
    assert width == pytest.approx(GAUSSIAN_FWHM_FACTOR * 0.5, rel=1e-3)
    with pytest.raises(ValueError, match="fewer than 5"):
        fwhm_of(scan, window=(1.99, 2.01))


def test_fwhm_cut_off_peak_rejected():
    x = np.linspace(0.0, 1.0, 101)
    scan = ScanSpectrum(x, np.exp(-x ** 2))
    with pytest.raises(ValueError, match="cut off"):
        fwhm_of(scan)
    empty = ScanSpectrum(x, np.zeros_like(x))
    with pytest.raises(ValueError, match="empty"):
        fwhm_of(empty)


def test_find_peaks_subgrid_refinement():
    x = np.linspace(-1.0, 1.0, 401)
    centers = (-0.50132, 0.00117, 0.49779)
    heights = (0.6, 1.0, 0.8)
    rates = sum(h * np.exp(-((x - c) ** 2) / (2 * 0.03 ** 2)) for c, h in zip(centers, heights))
    pos, height = find_peaks(ScanSpectrum(x, rates))
    assert pos.size == 3
    assert np.allclose(pos, centers, atol=1e-4)
    assert np.allclose(height, heights, rtol=1e-3)
    # threshold hides the weakest peak
    pos_hi, _ = find_peaks(ScanSpectrum(x, rates), min_height_frac=0.7)
    assert pos_hi.size == 2


def test_find_peaks_plateau_and_size_guard():
    y = np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.0])
    pos, height = find_peaks(ScanSpectrum(np.arange(6.0), y))
    assert pos.size == 2  # plateau counted once
    rising = np.array([0.0, 1.0, 1.0, 2.0, 0.0])
    pos_r, _ = find_peaks(ScanSpectrum(np.arange(5.0), rising))
    assert pos_r.size == 1  # plateau that keeps climbing is not a peak
    with pytest.raises(ValueError, match="at least 3"):
        find_peaks(ScanSpectrum(np.arange(2.0), np.ones(2)))


def test_coincidence_bounded_by_singles():
    inten = ratio_two_intensity(n=801)
    singles = singles_scan(inten, GEOM, "signal")
    coinc = coincidence_scan(inten, GEOM, 0.0)
    assert np.all(coinc.rates <= singles.rates * (1.0 + 1e-12) + 1e-15)


def test_conditional_narrower_and_fedorov_matches_schmidt_number():
    inten = ratio_two_intensity(n=2001)
    singles = singles_scan(inten, GEOM, "signal", zero_width=True)
    coinc = coincidence_scan(inten, GEOM, 0.0, zero_width=True)
    assert fwhm_of(coinc) < fwhm_of(singles)
    assert fedorov_ratio(inten, GEOM, zero_width=True) == pytest.approx(1.25, abs=2e-4)


def test_fedorov_matched_widths_is_unity_with_real_slits():
    widths = PumpWidths(1.0, 1.0)
    grid = WavevectorGrid.centered(0.0, 6.0, 1001)
    inten = build_double_gaussian(widths, grid).intensity()
    # separable amplitude: conditioning cannot change the scanned profile
    assert fedorov_ratio(inten, GEOM) == pytest.approx(1.0, abs=1e-10)
    assert fedorov_ratio(inten, GEOM, zero_width=True) == pytest.approx(1.0, abs=1e-10)


def test_fedorov_tie_breaks_toward_smaller_k():
    # two idler rows with exactly equal marginals but 3x different widths
    gs = WavevectorGrid.centered(0.0, 0.5, 101)
    gi = WavevectorGrid(0.0, 0.9, 91)
    values = np.zeros((101, 91))
    ks = gs.points()
    j_near = 30   # ki = 0.3
    j_far = 60    # ki = 0.6
    values[np.abs(ks) <= 0.105, j_near] = 1.0   # 21 nodes high 1
    values[np.abs(ks) <= 0.035, j_far] = 3.0    # 7 nodes high 3
    inten = JointIntensity(gs, gi, values)

    ki, mi = marginal_intensity(inten, "idler")
    assert mi[j_near] == mi[j_far] == mi.max()
    assert idler_peak_center(inten) == ki[j_near]

    got = fedorov_ratio(inten, GEOM, zero_width=True)
    singles = fwhm_of(singles_scan(inten, GEOM, "signal", zero_width=True))
    near = fwhm_of(coincidence_scan(inten, GEOM, 0.3, zero_width=True))
    far = fwhm_of(coincidence_scan(inten, GEOM, 0.6, zero_width=True))
    assert got == pytest.approx(singles / near, rel=1e-12)
    assert abs(got - singles / far) > 0.5


def test_scan_position_filtering():
    inten = ratio_two_intensity(n=401)
    with pytest.raises(ValueError, match="outside the grid"):
        coincidence_scan(inten, GEOM, 999.0)
    with pytest.raises(ValueError, match="which"):
        singles_scan(inten, GEOM, "pump")


def test_wider_slit_never_loses_counts():
    inten = ratio_two_intensity(n=801)
    narrow = singles_scan(inten, GEOM, "signal")
    wide_geom = dataclasses.replace(GEOM, slit_width_signal_mm=0.4)
    wide = singles_scan(inten, wide_geom, "signal")
    assert np.all(wide.rates >= narrow.rates - 1e-15)


def bbo_config():
    return PhaseMatchConfig(3000.0, 0.405, N_SIGNAL, N_PUMP)


def three_peak_kernel():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    widths = PumpWidths(fwhm_to_sigma_k(246.0), phase_matching_width(cfg))
    params = MultiPeakParams(3, 0.168, offset, widths, side_amplitude=0.63)
    gs, gi = default_grids(params, 768, 6.0, "+")
    return build_multipeak(params, gs, gi, "+"), params, cfg


def test_fixed_idler_slit_selects_one_mode():
    kernel, params, cfg = three_peak_kernel()
    offset = params.noncollinear_offset
    coinc = coincidence_scan(kernel.intensity(), GEOM, -offset / 2.0, zero_width=True)
    peak = coinc.rates.max()
    k = coinc.positions
    for other in (offset / 2.0 + 0.168, offset / 2.0 - 0.168):
        i = int(np.argmin(np.abs(k - other)))
        assert coinc.rates[i] <= 1e-30 * peak
    pos, _ = find_peaks(coinc, min_height_frac=0.05)
    assert pos.size == 1
    assert pos[0] == pytest.approx(offset / 2.0, abs=kernel.grid_s.spacing)


def test_idler_between_two_modes_sees_both():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    widths = PumpWidths(fwhm_to_sigma_k(246.0), phase_matching_width(cfg))
    params = MultiPeakParams(2, 0.168, offset, widths)
    gs, gi = default_grids(params, 769, 6.0, "+")
    kernel = build_multipeak(params, gs, gi, "+")
    coinc = coincidence_scan(kernel.intensity(), GEOM, -offset / 2.0, zero_width=True)
    pos, height = find_peaks(coinc, min_height_frac=0.2)
    assert pos.size == 2
    assert height[0] == pytest.approx(height[1], rel=1e-6)
    # conditioning midway: each mode's conditional is the product of a pump
    # factor at offset/2 +- 0.168 and a matching factor at offset/2, so the
    # peaks sit at the inverse-variance-weighted centers
    sp2 = widths.sigma_pump ** 2
    sm2 = widths.sigma_match ** 2
    shift = 0.168 * sm2 / (sp2 + sm2)
    assert np.allclose(sorted(pos), [offset / 2.0 - shift, offset / 2.0 + shift],
                       atol=kernel.grid_s.spacing)


def test_ring_wavevector_against_offset():
    cfg = bbo_config()
    anchor = noncollinear_offset(cfg).offset_um_inv
    ring = ring_wavevector(cfg.signal_wavelength_um, cfg)
    # ring radius and half the difference-coordinate offset agree to
    # sqrt((n_s + n_p) / (2 n_s)), a few 1e-4 here
    assert ring == pytest.approx(anchor / 2.0, rel=1e-3)
    expected_ratio = math.sqrt((N_SIGNAL + N_PUMP) / (2.0 * N_SIGNAL))
    assert ring / (anchor / 2.0) == pytest.approx(expected_ratio, rel=1e-12)
    with pytest.raises(ValueError, match="exceed the pump"):
        ring_wavevector(0.4, cfg)
    # at 0.68 um the partner sits at 1.0015 um, where this axis gives n = 0.499
    # (1.660 at 0.68 um): the idler wavevector is too short to close the triangle
    starved = SellmeierCoefficients(SellmeierAxis(4.9, 0.0, 0.0, 4.637),
                                    SellmeierAxis(4.9, 0.0, 0.0, 4.637), (0.2, 1.1))
    with pytest.raises(ValueError, match="no transverse phase match"):
        ring_wavevector(0.68, dataclasses.replace(cfg, dispersion=starved))


def test_effective_offset_anchored_at_design_wavelength():
    cfg = bbo_config()
    anchor = noncollinear_offset(cfg).offset_um_inv
    at_design = effective_offset(cfg.signal_wavelength_um, anchor, cfg)
    assert at_design == pytest.approx(anchor, rel=1e-12)
    # longer signal wavelengths land farther out
    assert effective_offset(0.825, anchor, cfg) > anchor > effective_offset(0.795, anchor, cfg)
    # the ring scales whatever offset the run resolved; a zero offset has no ring
    override = effective_offset(0.825, 1.2, cfg) / 1.2
    assert override == pytest.approx(effective_offset(0.825, anchor, cfg) / anchor, rel=1e-12)
    assert effective_offset(0.825, 0.0, cfg) == 0.0


def make_builder(params, gs, gi):
    def build(offset):
        return build_multipeak(dataclasses.replace(params, noncollinear_offset=offset),
                               gs, gi, "+")
    return build


def test_wavelength_average_reduces_to_mono_for_narrow_filter():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    widths = PumpWidths(fwhm_to_sigma_k(246.0), phase_matching_width(cfg))
    params = MultiPeakParams(1, 0.0, offset, widths)
    gs, gi = default_grids(params, 512, 6.0, "+")
    builder = make_builder(params, gs, gi)

    tiny = dataclasses.replace(GEOM, filter_fwhm_nm=1e-6)
    avg = wavelength_average(cfg, tiny, params, gs, gi, "+", n_samples=5)
    mono = builder(offset).intensity()
    assert np.max(np.abs(avg.values - mono.values)) <= 1e-8 * mono.values.max()


def test_wavelength_average_broadens_monotonically():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    widths = PumpWidths(fwhm_to_sigma_k(246.0), phase_matching_width(cfg))
    params = MultiPeakParams(1, 0.0, offset, widths)
    gs, gi = default_grids(params, 512, 6.0, "+")
    builder = make_builder(params, gs, gi)
    window = (offset / 2.0 - 0.06, offset / 2.0 + 0.06)

    def signal_fwhm(source):
        scan = singles_scan(source, GEOM, "signal", zero_width=True)
        return fwhm_of(scan, window=window)

    mono = signal_fwhm(builder(offset).intensity())
    w10 = signal_fwhm(wavelength_average(cfg, GEOM, params, gs, gi, "+"))
    geom20 = dataclasses.replace(GEOM, filter_fwhm_nm=20.0)
    w20 = signal_fwhm(wavelength_average(cfg, geom20, params, gs, gi, "+"))
    assert mono < w10 < w20

    avg = wavelength_average(cfg, GEOM, params, gs, gi, "+")
    scan = singles_scan(avg, GEOM, "signal", zero_width=True)
    pos, _ = find_peaks(scan, min_height_frac=0.5)
    assert pos[int(np.argmax(np.abs(pos)))] == pytest.approx(offset / 2.0, abs=1e-3)


def test_wavelength_average_validation():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    widths = PumpWidths(fwhm_to_sigma_k(246.0), phase_matching_width(cfg))
    params = MultiPeakParams(1, 0.0, offset, widths)
    gs, gi = default_grids(params, 512, 6.0, "+")
    with pytest.raises(ValueError, match="at least 3"):
        wavelength_average(cfg, GEOM, params, gs, gi, "+", n_samples=2)
    coarse_s, coarse_i = default_grids(params, 64, 6.0, "+")
    with pytest.raises(ValueError, match="signal grid step .* cannot resolve"):
        wavelength_average(cfg, GEOM, params, coarse_s, coarse_i, "+")
    # the pump comb underflows on every sum ks + ki of grids far off its peak
    far_s, far_i = (WavevectorGrid(g.k_min + 50.0, g.k_max + 50.0, g.n_points) for g in (gs, gi))
    with pytest.raises(ValueError, match="amplitude is identically zero"):
        wavelength_average(cfg, GEOM, params, far_s, far_i, "+")


def three_peak_case(branch, n_points=128, span_sigmas=4.0, idler_drop=0):
    # a coarse grid that clips the union of the samples' supports on both axes
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    params = MultiPeakParams(3, 0.6, offset, PumpWidths(0.16, 0.2), side_amplitude=0.63)
    gs, gi = default_grids(params, n_points, span_sigmas, branch)
    # the same spacing on fewer idler points
    gi = WavevectorGrid(gi.k_min, gi.k_max - idler_drop * gi.spacing, n_points - idler_drop)
    return (cfg, GEOM, params, gs, gi, branch), 2


def shipped_three_modes_case():
    run = load_config(THREE_MODES)
    return (run.phase_match, run.geometry, run.pump, *run.grids(), run.branch), 0


@pytest.mark.parametrize("case", [
    pytest.param(lambda: three_peak_case("+"), id="+"),
    pytest.param(lambda: three_peak_case("both"), id="both"),
    # the amplitude is still 1e-3 of its peak at the corners, so every
    # diagonal of the joint grids counts
    pytest.param(lambda: three_peak_case("+", 64, 1.5, idler_drop=8), id="tight"),
    pytest.param(shipped_three_modes_case, id="three_modes"),
])
def test_wavelength_average_equals_one_build_per_sample(case):
    # reference: a full build_multipeak per spectral sample, summed incoherently
    (cfg, geom, params, gs, gi, branch), n_clips = case()
    lam_c = geom.central_wavelength_nm * 1e-3
    fwhm = geom.filter_fwhm_nm * 1e-3
    sigma = fwhm / GAUSSIAN_FWHM_FACTOR
    lams = np.linspace(lam_c - 1.5 * fwhm, lam_c + 1.5 * fwhm, 21)
    weights = np.exp(-((lams - lam_c) ** 2) / (2.0 * sigma * sigma))
    weights /= weights.sum()
    offset = params.noncollinear_offset
    samples = [dataclasses.replace(params, noncollinear_offset=effective_offset(lam, offset, cfg))
               for lam in lams]
    kernels = [build_multipeak(p, gs, gi, branch) for p in samples]
    total = np.zeros((gs.n_points, gi.n_points))
    for kern, w in zip(kernels, weights):
        total += w * np.abs(kern.amplitude) ** 2
    total /= total.sum() * gs.spacing * gi.spacing
    # one clip warning per axis, against the union of the samples' supports
    covers = [default_grids(p, gs.n_points, MIN_COVER_SIGMAS, branch) for p in samples]
    clips = []
    for axis, (label, grid) in enumerate((("signal", gs), ("idler", gi))):
        lo, hi = min(c[axis].k_min for c in covers), max(c[axis].k_max for c in covers)
        if not grid.covers(lo, hi):
            clips.append(f"{label} grid [{grid.k_min:.4g}, {grid.k_max:.4g}] clips the amplitude "
                         f"support [{lo:.4g}, {hi:.4g}]; tails are truncated")

    avg = wavelength_average(cfg, geom, params, gs, gi, branch)
    # the average sums in another order than the loop: equal to rounding
    assert np.max(np.abs(avg.values - total)) <= 1e-12 * total.max()
    assert len(clips) == n_clips
    assert avg.warnings == tuple(w for w in kernels[0].warnings if "clips" not in w) + tuple(clips)


def test_wavelength_average_needs_one_grid_spacing():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    params = MultiPeakParams(1, 0.0, offset, PumpWidths(0.16, 0.2))
    gs, gi = default_grids(params, 128, 4.0, "+")
    wider = WavevectorGrid(gi.k_min - 0.01, gi.k_max, gi.n_points)
    with pytest.raises(ValueError, match="spacings differ"):
        wavelength_average(cfg, GEOM, params, gs, wider, "+")


def test_wavelength_average_holds_one_joint_array():
    # a loop over per-sample kernels holds six joint-grid arrays at its peak
    run = load_config(THREE_MODES)
    gs, gi = run.grids()
    tracemalloc.start()
    try:
        wavelength_average(run.phase_match, run.geometry, run.pump, gs, gi, run.branch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gs.n_points == 512
    assert peak <= 2 * gs.n_points * gi.n_points * 8


def test_crosstalk_identical_modes():
    grid = WavevectorGrid.centered(0.0, 1.0, 501)
    logs = gaussian_mode_log_intensities([0.0, 0.0], 0.05, grid)
    x = crosstalk_matrix(logs, grid, log_input=True)
    assert np.allclose(x.values, 1.0, atol=1e-12)
    assert np.max(np.abs(x.log_values)) < 1e-12


def test_crosstalk_gaussian_separation_law():
    grid = WavevectorGrid.centered(0.5, 1.5, 2001)
    s = 0.02
    d = 0.5
    logs = gaussian_mode_log_intensities([0.0, d, 2.0 * d], s, grid)
    x = crosstalk_matrix(logs, grid, log_input=True)
    assert x.log_values[0, 1] == pytest.approx(-d * d / (s * s), rel=1e-10)
    assert x.log_values[1, 2] == pytest.approx(x.log_values[0, 1], rel=1e-10)
    # twice the separation costs four times the exponent
    assert x.log_values[0, 2] == pytest.approx(4.0 * x.log_values[0, 1], rel=1e-10)
    assert np.allclose(np.diag(x.log_values), 0.0, atol=1e-12)
    assert np.array_equal(x.log_values, x.log_values.T)
    assert np.allclose(x.log10(), x.log_values / math.log(10.0), rtol=1e-15)


def test_crosstalk_log_domain_agrees_with_direct():
    grid = WavevectorGrid.centered(0.06, 0.5, 3001)
    s = 0.01
    for d in (4.0 * s, 6.0 * s):
        logs = gaussian_mode_log_intensities([0.0, d], s, grid)
        via_log = crosstalk_matrix(logs, grid, log_input=True)
        direct = crosstalk_matrix(np.exp(logs), grid)
        assert via_log.values[0, 1] == pytest.approx(direct.values[0, 1], rel=1e-10)


def test_crosstalk_amplitude_vs_intensity_overlap():
    grid = WavevectorGrid.centered(0.0, 8.0, 1601)
    psi0 = hermite_gauss(0, 1.0, grid)
    psi1 = hermite_gauss(1, 1.0, grid)
    amp = crosstalk_matrix(np.stack([psi0, psi1]), grid)
    assert amp.values[0, 1] < 1e-12  # orthogonal amplitudes
    inten = crosstalk_matrix(np.stack([psi0 ** 2, psi1 ** 2]), grid)
    assert inten.values[0, 1] > 0.1  # their intensities still overlap


def test_crosstalk_validation():
    grid = WavevectorGrid.centered(0.0, 1.0, 64)
    modes = np.ones((2, 64))
    with pytest.raises(ValueError, match="2D"):
        crosstalk_matrix(np.ones(64), grid)
    with pytest.raises(ValueError, match="64"):
        crosstalk_matrix(np.ones((2, 32)), grid)
    with pytest.raises(ValueError, match="positive norm"):
        crosstalk_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="scale"):
        gaussian_mode_log_intensities([0.0], -1.0, grid)
