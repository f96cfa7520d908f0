"""Far-field scans, widths, spectral averaging, and mode crosstalk."""

import dataclasses
import math
import os

import numpy as np
import pytest
import yaml
from scipy.special import logsumexp

from spdc_modes.cli import main
from spdc_modes.config import load_config, parse_config
from spdc_modes.detection import (
    DetectionGeometry,
    Profile1D,
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
    build_multipeak,
    default_grid,
)
from spdc_modes.optics import (
    GAUSSIAN_FWHM_FACTOR,
    PhaseMatchConfig,
    SellmeierAxis,
    SellmeierCoefficients,
    WavevectorGrid,
    fwhm_to_sigma_k,
    noncollinear_offset,
    phase_matching_width,
)

from oracles import hermite_gauss, joint_array, linear_crosstalk, recorded
from traced import traced_peak

GEOM = DetectionGeometry()
WINDOWS = GEOM.slit_windows()
IDEAL = (None, None)  # zero-width slits
THREE_MODES = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "three_modes.yaml")
CROSSTALK = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "crosstalk.yaml")

# degenerate type-I cut, frozen from the Sellmeier data used in the configs
N_SIGNAL = 1.6602583173171748
N_PUMP = 1.6579880614409859


def ratio_two_intensity(n=2001, span=6.0):
    grid = WavevectorGrid.centered(0.0, span * 2.0, n)
    return build_multipeak(MultiPeakParams((1.0,), 0.0, 0.0, 1.0, 2.0), grid).intensity


def test_slit_windows_match_geometry():
    r, r_idler = GEOM.slit_windows()
    assert r == pytest.approx(2.0 * math.pi / 0.81 * (0.2 / 100.0), rel=1e-12)
    assert r_idler == pytest.approx(2.0 * r, rel=1e-12)
    assert GEOM.position_to_wavevector(1.0) == pytest.approx(
        2.0 * math.pi / 0.81 * (1.0 / 100.0), rel=1e-12)
    # the medium index scales both windows
    dense = dataclasses.replace(GEOM, medium_index=1.5)
    assert dense.slit_windows() == pytest.approx((1.5 * r, 1.5 * r_idler), rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError, match="focal_length_mm"):
        DetectionGeometry(focal_length_mm=0.0)
    with pytest.raises(ValueError, match="filter_fwhm_nm"):
        DetectionGeometry(filter_fwhm_nm=-1.0)
    with pytest.raises(ValueError, match="medium index"):
        DetectionGeometry(medium_index=0.9)


def test_zero_width_singles_equals_marginal():
    inten = ratio_two_intensity(n=401)
    scan = singles_scan(inten, None)
    k, marg = inten.grid_s.points(), inten.marginal
    assert np.array_equal(scan.x, k)
    assert np.array_equal(scan.values, marg)
    scan_i = singles_scan(inten.swapped, None)
    k_i, marg_i = inten.grid_i.points(), inten.swapped.marginal
    assert np.array_equal(scan_i.x, k_i)
    assert np.array_equal(scan_i.values, marg_i)


def test_finite_slit_tophat_gives_trapezoid():
    # top-hat marginal of width 0.4 scanned with an r-wide slit: the matching
    # profile holds only ks - ki = 0, so the signal marginal at node i is the
    # pump at the sum node 2i, a top-hat over |ks| <= 0.2
    gs = WavevectorGrid.centered(0.0, 1.0, 2001)
    w = 0.4
    pump = np.where(np.abs(np.arange(4001) - 2000) <= 400, 1.0, 0.0)
    match = np.zeros(4001)
    match[gs.n_points - 1] = 1.0
    inten = JointIntensity(gs, pump, match)

    geom = DetectionGeometry(slit_width_signal_mm=1.0)
    r, _ = geom.slit_windows()
    assert r < w
    scan = singles_scan(inten, r)
    x = scan.x
    height = gs.spacing
    oracle = height * r * np.clip((w / 2.0 + r / 2.0 - np.abs(x)) / r, 0.0, 1.0)
    assert np.max(np.abs(scan.values - oracle)) < height * gs.spacing
    assert fwhm_of(scan) == pytest.approx(w, abs=2.0 * gs.spacing)


def test_fwhm_gaussian_interp_and_fit():
    inten = ratio_two_intensity(n=4001)
    scan = singles_scan(inten, None)
    sigma_marginal = math.sqrt((1.0 + 4.0) / 8.0)
    oracle = GAUSSIAN_FWHM_FACTOR * sigma_marginal
    assert fwhm_of(scan) == pytest.approx(oracle, rel=1e-4)


def test_fwhm_disjoint_peaks_need_window():
    x = np.linspace(-6.0, 6.0, 1201)
    rates = np.exp(-((x - 2.0) ** 2) / 0.5) + np.exp(-((x + 2.0) ** 2) / 0.5)
    scan = Profile1D(x, rates)
    with pytest.raises(ValueError, match="disjoint"):
        fwhm_of(scan)
    width = fwhm_of(scan, window=(0.0, 6.0))
    assert width == pytest.approx(GAUSSIAN_FWHM_FACTOR * 0.5, rel=1e-3)
    with pytest.raises(ValueError, match="fewer than 5"):
        fwhm_of(scan, window=(1.99, 2.01))


def test_fwhm_cut_off_peak_rejected():
    x = np.linspace(0.0, 1.0, 101)
    scan = Profile1D(x, np.exp(-x ** 2))
    with pytest.raises(ValueError, match="cut off"):
        fwhm_of(scan)
    empty = Profile1D(x, np.zeros_like(x))
    with pytest.raises(ValueError, match="empty"):
        fwhm_of(empty)


def test_find_peaks_subgrid_refinement():
    x = np.linspace(-1.0, 1.0, 401)
    centers = (-0.50132, 0.00117, 0.49779)
    heights = (0.6, 1.0, 0.8)
    rates = sum(h * np.exp(-((x - c) ** 2) / (2 * 0.03 ** 2)) for c, h in zip(centers, heights))
    pos, height = find_peaks(Profile1D(x, rates))
    assert pos.size == 3
    assert np.allclose(pos, centers, atol=1e-4)
    assert np.allclose(height, heights, rtol=1e-3)
    # threshold hides the weakest peak
    pos_hi, _ = find_peaks(Profile1D(x, rates), min_height_frac=0.7)
    assert pos_hi.size == 2


def test_find_peaks_plateau_and_size_guard():
    y = np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.0])
    pos, height = find_peaks(Profile1D(np.arange(6.0), y))
    assert pos.size == 2  # plateau counted once
    rising = np.array([0.0, 1.0, 1.0, 2.0, 0.0])
    pos_r, _ = find_peaks(Profile1D(np.arange(5.0), rising))
    assert pos_r.size == 1  # plateau that keeps climbing is not a peak
    with pytest.raises(ValueError, match="at least 3"):
        find_peaks(Profile1D(np.arange(2.0), np.ones(2)))


def test_coincidence_bounded_by_singles():
    inten = ratio_two_intensity(n=801)
    singles = singles_scan(inten, WINDOWS[0])
    coinc = coincidence_scan(inten, 0.0, *WINDOWS)
    assert np.all(coinc.values <= singles.values * (1.0 + 1e-12) + 1e-15)


def test_conditional_narrower_and_fedorov_matches_schmidt_number():
    inten = ratio_two_intensity(n=2001)
    singles = singles_scan(inten, None)
    coinc = coincidence_scan(inten, 0.0, None, None)
    assert fwhm_of(coinc) < fwhm_of(singles)
    assert fedorov_ratio(inten, IDEAL, None) == pytest.approx(1.25, abs=2e-4)


def test_fedorov_matched_widths_is_unity_with_real_slits():
    grid = WavevectorGrid.centered(0.0, 6.0, 1001)
    inten = build_multipeak(MultiPeakParams((1.0,), 0.0, 0.0, 1.0, 1.0), grid).intensity
    # separable amplitude: conditioning cannot change the scanned profile
    assert fedorov_ratio(inten, WINDOWS, None) == pytest.approx(1.0, abs=1e-10)
    assert fedorov_ratio(inten, IDEAL, None) == pytest.approx(1.0, abs=1e-10)
    # the same mode on both rings: two singles peaks, one measured
    params = MultiPeakParams((1.0,), 0.0, 20.0, 1.0, 1.0, both_branches=True)
    both = build_multipeak(params, default_grid(params, 801, 6.0)).intensity
    for windows in (WINDOWS, IDEAL):
        ratio = fedorov_ratio(both, windows, params.mode_spacing())
        assert ratio == pytest.approx(1.0, abs=1e-10)
    # rings too close to split the singles peak: the merged peak is measured whole
    near = dataclasses.replace(params, noncollinear_offset=1.0)
    merged = build_multipeak(near, default_grid(near, 801, 6.0)).intensity
    assert near.mode_spacing() == 1.0 and fwhm_of(singles_scan(merged, WINDOWS[0])) > 1.0
    assert fedorov_ratio(merged, WINDOWS, near.mode_spacing()) == fedorov_ratio(
        merged, WINDOWS, None)


def two_block_intensity(far_scale=1.0):
    """Two idler columns with equal marginals but 3x different widths.

    On the grid k = -0.9 + 0.01 i (its own mirror) the pump holds a block of
    21 sums ks + ki in [0.2, 0.4] (1, with 2 at its centre) and one of 7 in
    [0.87, 0.93] (3, with 4 at its centre, times ``far_scale``); the
    matching holds the 21 differences ks - ki in [-0.4, -0.2]. Idler column
    j then sees the sum nodes 2j - 40 .. 2j - 20: column 120 (ki = 0.3)
    holds the first block whole, columns 147..153 the second, and no column
    reaches both; small integers keep the tie exact.
    """
    grid = WavevectorGrid.centered(0.0, 0.9, 181)
    pump = np.zeros(361)
    pump[200:221] = 1.0
    pump[210] = 2.0
    pump[267:274] = 3.0
    pump[270] = 4.0
    pump[267:274] *= far_scale
    match = np.zeros(361)
    match[140:161] = 1.0
    return JointIntensity(grid, pump, match)


def test_fedorov_tie_breaks_toward_smaller_k():
    inten = two_block_intensity()
    j_near = 120  # ki = 0.3: 21 nodes around ks = 0
    j_far = 150   # ki = 0.6: 7 nodes around ks = 0.3

    ki, mi = inten.grid_i.points(), inten.swapped.marginal
    assert mi[j_near] == mi[j_far] == mi.max()
    assert idler_peak_center(inten) == ki[j_near]

    # the singles hold one peak per block, so the widths are read within
    # half the spacing of the two blocks' centres
    got = fedorov_ratio(inten, IDEAL, 0.3)
    window = (-0.15, 0.15)
    singles = fwhm_of(singles_scan(inten, None), window)
    near = fwhm_of(coincidence_scan(inten, ki[j_near], *IDEAL), window)
    far = fwhm_of(coincidence_scan(inten, ki[j_far], *IDEAL))
    assert got == pytest.approx(singles / near, rel=1e-12)
    assert abs(got - singles / far) > 0.5


def test_idler_tie_within_rounding_breaks_toward_smaller_k():
    # the far block a relative 2^-50 up: a last-bit lead must not move the slit
    inten = two_block_intensity(far_scale=1.0 + 2.0 ** -50)
    ki, mi = inten.grid_i.points(), inten.swapped.marginal
    assert mi[150] > mi[120] and mi[150] == mi.max()
    assert idler_peak_center(inten) == ki[120]


def test_mirror_ring_tie_parks_the_slit_on_the_negative_node():
    # the two rings of a grid centred on zero tie in exact arithmetic; in
    # floating point either node can lead by a relative 1e-15
    run = load_config(THREE_MODES, {"grid.points": 841, "grid.both_branches": True})
    inten = build_multipeak(run.pump, run.grid).intensity
    ki, mi = inten.grid_i.points(), inten.swapped.marginal
    ring = [int(np.argmin(np.abs(ki - k))) for k in (-0.6746527647, 0.6746527647)]
    assert np.all(mi[ring] >= (1.0 - 1e-12) * mi.max())
    assert idler_peak_center(inten) == ki[ring[0]]


def test_scan_position_filtering():
    inten = ratio_two_intensity(n=401)
    for windows in (WINDOWS, IDEAL):
        with pytest.raises(ValueError, match="outside the grid"):
            coincidence_scan(inten, 999.0, *windows)


def test_wider_slit_never_loses_counts():
    inten = ratio_two_intensity(n=801)
    narrow = singles_scan(inten, WINDOWS[0])
    wide_geom = dataclasses.replace(GEOM, slit_width_signal_mm=0.4)
    wide = singles_scan(inten, wide_geom.slit_windows()[0])
    assert np.all(wide.values >= narrow.values - 1e-15)


def bbo_config():
    return PhaseMatchConfig(3000.0, 0.405, N_SIGNAL, N_PUMP)


def three_peak_intensity():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.168, offset, fwhm_to_sigma_k(246.0),
                             phase_matching_width(cfg))
    return build_multipeak(params, default_grid(params, 768, 6.0)).intensity, params, cfg


def test_fixed_idler_slit_selects_one_mode():
    inten, params, cfg = three_peak_intensity()
    offset = params.noncollinear_offset
    coinc = coincidence_scan(inten, -offset / 2.0, *IDEAL)
    peak = coinc.values.max()
    k = coinc.x
    for other in (offset / 2.0 + 0.168, offset / 2.0 - 0.168):
        i = int(np.argmin(np.abs(k - other)))
        assert coinc.values[i] <= 1e-30 * peak
    pos, _ = find_peaks(coinc, min_height_frac=0.05)
    assert pos.size == 1
    assert pos[0] == pytest.approx(offset / 2.0, abs=inten.grid_s.spacing)


def test_idler_between_two_modes_sees_both():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    params = MultiPeakParams((1.0, 1.0), 0.168, offset, fwhm_to_sigma_k(246.0),
                             phase_matching_width(cfg))
    gs = default_grid(params, 769, 6.0)
    coinc = coincidence_scan(build_multipeak(params, gs).intensity, -offset / 2.0, *IDEAL)
    pos, height = find_peaks(coinc, min_height_frac=0.2)
    assert pos.size == 2
    assert height[0] == pytest.approx(height[1], rel=1e-6)
    # conditioning midway: each mode's conditional is the product of a pump
    # factor at offset/2 +- 0.168 and a matching factor at offset/2, so the
    # peaks sit at the inverse-variance-weighted centers
    sp2 = params.sigma_pump ** 2
    sm2 = params.sigma_match ** 2
    shift = 0.168 * sm2 / (sp2 + sm2)
    assert np.allclose(sorted(pos), [offset / 2.0 - shift, offset / 2.0 + shift],
                       atol=gs.spacing)


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


@pytest.mark.parametrize("name", ["single_mode", "three_modes", "crosstalk", "hologram", "indices"])
def test_the_emission_angle_is_the_signals_own(tmp_path, capsys, name):
    # the kernel puts the signal at +K/2, so the reported internal angle satisfies
    # k_s sin(theta) = the signal's ring wavevector, to the few 1e-4 by which the
    # exact ring differs from K/2, sqrt((n_s + n_p) / (2 n_s))
    base = "three_modes" if name == "indices" else name
    with open(os.path.join(os.path.dirname(THREE_MODES), f"{base}.yaml"), encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if name == "indices":  # a noncollinear geometry stated by its two indices
        del data["phase_match"]["sellmeier"]
        data["phase_match"]["indices"] = {"signal": 1.60, "pump": 1.597}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    cfg = load_config(str(path))
    pm = cfg.phase_match
    assert math.sin(cfg.emission_angle_rad) * pm.signal_wavevector == pytest.approx(
        ring_wavevector(pm.signal_wavelength_um, pm), rel=1e-3)
    # and the run prints that angle
    assert main(["pump", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (f"derived: internal emission angle = {math.degrees(cfg.emission_angle_rad):.6g} deg"
            in capsys.readouterr().out.splitlines())


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


def make_builder(params, grid):
    def build(offset):
        return build_multipeak(dataclasses.replace(params, noncollinear_offset=offset), grid).intensity
    return build


def test_wavelength_average_reduces_to_mono_for_narrow_filter():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    params = MultiPeakParams((1.0,), 0.0, offset, fwhm_to_sigma_k(246.0),
                             phase_matching_width(cfg))
    grid = default_grid(params, 512, 6.0)
    builder = make_builder(params, grid)

    tiny = dataclasses.replace(GEOM, filter_fwhm_nm=1e-6)
    avg = wavelength_average(cfg, tiny, params, grid)
    mono = joint_array(builder(offset))
    assert np.max(np.abs(joint_array(avg) - mono)) <= 1e-8 * mono.max()


def test_wavelength_average_broadens_monotonically():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    params = MultiPeakParams((1.0,), 0.0, offset, fwhm_to_sigma_k(246.0),
                             phase_matching_width(cfg))
    grid = default_grid(params, 512, 6.0)
    builder = make_builder(params, grid)
    window = (offset / 2.0 - 0.06, offset / 2.0 + 0.06)

    def signal_fwhm(source):
        return fwhm_of(singles_scan(source, None), window=window)

    mono = signal_fwhm(builder(offset))
    w10 = signal_fwhm(wavelength_average(cfg, GEOM, params, grid))
    geom20 = dataclasses.replace(GEOM, filter_fwhm_nm=20.0)
    w20 = signal_fwhm(wavelength_average(cfg, geom20, params, grid))
    assert mono < w10 < w20

    avg = wavelength_average(cfg, GEOM, params, grid)
    scan = singles_scan(avg, None)
    pos, _ = find_peaks(scan, min_height_frac=0.5)
    assert pos[int(np.argmax(np.abs(pos)))] == pytest.approx(offset / 2.0, abs=1e-3)


def test_wavelength_average_validation():
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    params = MultiPeakParams((1.0,), 0.0, offset, fwhm_to_sigma_k(246.0),
                             phase_matching_width(cfg))
    grid = default_grid(params, 512, 6.0)
    with pytest.raises(ValueError, match="signal grid step .* cannot resolve"):
        wavelength_average(cfg, GEOM, params, default_grid(params, 64, 6.0))
    # a grid 50 1/um off the ring and its mirror: every difference ks - ki
    # lies near 100, where each sample's matching factor underflows
    far = WavevectorGrid(grid.k_min + 50.0, grid.k_max + 50.0, grid.n_points)
    with pytest.raises(ValueError, match="amplitude is identically zero"):
        wavelength_average(cfg, GEOM, params, far)


def three_peak_case(both_branches, n_points=128, span_sigmas=4.0):
    # a coarse grid that clips the union of the samples' supports on both axes
    cfg = bbo_config()
    offset = noncollinear_offset(cfg).offset_um_inv
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.6, offset, 0.16, 0.2,
                             both_branches=both_branches)
    return (cfg, GEOM, params, default_grid(params, n_points, span_sigmas)), 2


def shipped_three_modes_case():
    run = load_config(THREE_MODES)
    return (run.phase_match, run.geometry, run.pump, run.grid), 0


@pytest.mark.parametrize("case", [
    pytest.param(lambda: three_peak_case(False), id="+"),
    pytest.param(lambda: three_peak_case(True), id="both"),
    # the amplitude is still 1e-3 of its peak at the corners, so every
    # diagonal of the joint grids counts
    pytest.param(lambda: three_peak_case(False, 64, 1.5), id="tight"),
    pytest.param(shipped_three_modes_case, id="three_modes"),
])
def test_wavelength_average_equals_one_build_per_sample(case):
    # reference: the joint intensity of each spectral sample formed on the
    # grid and its mirror, normalized, and summed incoherently
    (cfg, geom, params, gs), n_clips = case()
    gi = gs.mirrored()
    lam_c = geom.central_wavelength_nm * 1e-3
    fwhm = geom.filter_fwhm_nm * 1e-3
    sigma = fwhm / GAUSSIAN_FWHM_FACTOR
    lams = np.linspace(lam_c - 1.5 * fwhm, lam_c + 1.5 * fwhm, 21)
    weights = np.exp(-((lams - lam_c) ** 2) / (2.0 * sigma * sigma))
    weights /= weights.sum()
    offset = params.noncollinear_offset
    samples = [dataclasses.replace(params, noncollinear_offset=effective_offset(lam, offset, cfg))
               for lam in lams]
    ks = gs.points()[:, None]
    ki = gi.points()[None, :]
    total = np.zeros((gs.n_points, gi.n_points))
    for p, w in zip(samples, weights):
        sample = (p.pump_factor(ks + ki) * p.matching_factor(ks - ki)) ** 2
        total += w * sample / sample.sum()
    total /= total.sum() * gs.spacing * gi.spacing
    # one clip warning per axis, against the union of the samples' supports;
    # the idler supports are the mirror images of the signal ones
    covers = [default_grid(p, gs.n_points, MIN_COVER_SIGMAS) for p in samples]
    clips = []
    for label, grid, sign in (("signal", gs, 1.0), ("idler", gi, -1.0)):
        ends = [sign * k for c in covers for k in (c.k_min, c.k_max)]
        lo, hi = min(ends), max(ends)
        if not grid.covers(lo, hi):
            clips.append(f"{label} grid [{grid.k_min:.4g}, {grid.k_max:.4g}] clips the amplitude "
                         f"support [{lo:.4g}, {hi:.4g}]; tails are truncated")

    avg, warned = recorded(wavelength_average, cfg, geom, params, gs)
    # the average sums in another order than the loop: equal to rounding
    assert np.max(np.abs(joint_array(avg) - total)) <= 1e-12 * total.max()
    assert len(clips) == n_clips
    first = recorded(build_multipeak, samples[0], gs)[1]
    assert warned == [w for w in first if "clips" not in w] + clips


def test_wavelength_average_holds_one_joint_array():
    # a loop over per-sample kernels holds six joint-grid arrays at its peak
    run = load_config(THREE_MODES)
    grid = run.grid
    _, peak = traced_peak(lambda: wavelength_average(run.phase_match, run.geometry,
                                                     run.pump, grid))
    assert grid.n_points == 512
    assert peak <= 2 * grid.n_points ** 2 * 8


def test_crosstalk_identical_modes():
    grid = WavevectorGrid.centered(0.0, 1.0, 501)
    logs = gaussian_mode_log_intensities([0.0, 0.0], 0.05, grid)
    x = crosstalk_matrix(logs, grid)
    assert np.allclose(x.values, 1.0, atol=1e-12)
    assert np.max(np.abs(x.log_values)) < 1e-12


def test_crosstalk_gaussian_separation_law():
    grid = WavevectorGrid.centered(0.5, 1.5, 2001)
    s = 0.02
    d = 0.5
    logs = gaussian_mode_log_intensities([0.0, d, 2.0 * d], s, grid)
    x = crosstalk_matrix(logs, grid)
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
        via_log = crosstalk_matrix(logs, grid)
        direct = linear_crosstalk(np.exp(logs), grid)
        assert via_log.values[0, 1] == pytest.approx(direct[0, 1], rel=1e-10)


def test_crosstalk_amplitude_vs_intensity_overlap():
    grid = WavevectorGrid.centered(0.0, 8.0, 1601)
    psi0 = hermite_gauss(0, 1.0, grid)
    psi1 = hermite_gauss(1, 1.0, grid)
    amp = linear_crosstalk(np.stack([psi0, psi1]), grid)
    assert amp[0, 1] < 1e-12  # orthogonal amplitudes
    inten = linear_crosstalk(np.stack([psi0 ** 2, psi1 ** 2]), grid)
    assert inten[0, 1] > 0.1  # their intensities still overlap


def comb64_log_modes():
    """The detection modes of a 64-peak comb at 2048 points, as the crosstalk
    command forms them."""
    with open(CROSSTALK, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["pump"] = {"peaks": 64, "peak_spacing_um_inv": 0.12, "envelope_fwhm_um": 100.0,
                    "matching_width": "derived"}
    data["grid"]["points"] = 2048
    run = parse_config(data)
    scale = math.sqrt(run.pump.sigma_pump * run.pump.sigma_match / 2.0)
    return gaussian_mode_log_intensities(run.pump.signal_centers(), scale, run.grid), run.grid


def one_call_per_row(log_modes, grid):
    """Crosstalk values and logs with one logsumexp call per row over every later row."""
    n = log_modes.shape[0]
    w = np.full(grid.n_points, grid.spacing)
    w[0] = w[-1] = grid.spacing / 2.0
    log_cross = np.empty((n, n))
    for m in range(n):
        log_cross[m, m:] = log_cross[m:, m] = logsumexp(log_modes[m] + log_modes[m:] + np.log(w),
                                                         axis=1)
    diag = np.diag(log_cross)
    log_x = 2.0 * log_cross - diag[:, None] - diag[None, :]
    with np.errstate(under="ignore"):
        return np.exp(log_x), log_x


def test_crosstalk_sums_a_few_rows_at_a_time():
    # a (64 - m) x N product per row holds ~6 log_modes-sized arrays at once;
    # a few rows per call hold less than one, and each row's sum is unchanged
    logs, grid = comb64_log_modes()
    assert logs.shape == (64, 2048)
    x, peak = traced_peak(lambda: crosstalk_matrix(logs, grid))
    values, log_values = one_call_per_row(logs, grid)
    assert np.array_equal(x.values, values)
    assert np.array_equal(x.log_values, log_values)
    assert peak <= logs.nbytes


def test_crosstalk_validation():
    grid = WavevectorGrid.centered(0.0, 1.0, 64)
    modes = np.ones((2, 64))
    with pytest.raises(ValueError, match="2D"):
        crosstalk_matrix(np.ones(64), grid)
    with pytest.raises(ValueError, match="64"):
        crosstalk_matrix(np.ones((2, 32)), grid)
    with pytest.raises(ValueError, match="positive norm"):
        linear_crosstalk(np.stack([np.zeros(64), np.ones(64)]), grid)
    with pytest.raises(ValueError, match="scale"):
        gaussian_mode_log_intensities([0.0], -1.0, grid)
