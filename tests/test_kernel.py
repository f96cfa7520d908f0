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
from spdc_modes.detection import (
    DetectionGeometry,
    coincidence_scan,
    idler_peak_center,
    singles_scan,
)
from spdc_modes.kernel import (
    JointIntensity,
    MultiPeakParams,
    TpaKernel,
    build_double_gaussian,
    build_from_pump,
    build_multipeak,
    default_grid,
    sum_coordinate_grid,
)
from spdc_modes.optics import (
    PhaseMatchConfig,
    WavevectorGrid,
    noncollinear_offset,
    phase_matching_width,
)

from oracles import joint_array, pump_spectrum_from_field, recorded

SIGMA = 0.009419280180123796  # 250 um envelope
SINGLE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "single_mode.yaml")
THREE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "three_modes.yaml")


def centered(half, n=256):
    return WavevectorGrid.centered(0.0, half, n)


def test_normalization_unit_integral():
    kernel = build_double_gaussian(SIGMA, 2.0 * SIGMA, centered(5 * 2 * SIGMA, 256))
    total = np.sum(np.abs(kernel.amplitude) ** 2) * kernel.grid_s.spacing * kernel.grid_i.spacing
    assert total == pytest.approx(1.0, abs=1e-12)
    assert kernel.norm() == pytest.approx(1.0, abs=1e-12)


def test_matched_widths_kernel_is_separable():
    kernel = build_double_gaussian(SIGMA, SIGMA, centered(5 * SIGMA, 128))
    amp = kernel.amplitude
    i0 = amp.shape[0] // 2
    outer = np.outer(amp[:, i0], amp[i0, :]) / amp[i0, i0]
    assert np.allclose(amp, outer, rtol=1e-12, atol=1e-300)


def test_single_peak_reduces_to_double_gaussian():
    grid = centered(5 * 1.7 * SIGMA, 200)
    params = MultiPeakParams((1.0,), 0.0, 0.0, SIGMA, 1.7 * SIGMA)
    multi = build_multipeak(params, grid)
    ks = grid.points()[:, None]
    ki = grid.points()[None, :]
    closed = np.exp(-((ks + ki) ** 2) / (2.0 * params.sigma_pump ** 2)
                    - ((ks - ki) ** 2) / (2.0 * params.sigma_match ** 2))
    closed /= np.sqrt(np.sum(closed ** 2) * grid.spacing ** 2)
    assert np.allclose(multi.amplitude, closed, rtol=1e-12, atol=0.0)


def test_mode_offsets_centers_weights():
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.168, 1.347, SIGMA, SIGMA)
    assert params.n_peaks == 3
    assert np.allclose(params.mode_offsets(), [0.168, 0.0, -0.168])
    assert np.allclose(params.pump_centers(), [0.336, 0.0, -0.336])
    # each peak's Gaussian in the pump comb carries its own amplitude
    assert params.pump_factor(params.pump_centers()) == pytest.approx([0.63, 1.0, 0.63],
                                                                      rel=1e-12)
    uniform = MultiPeakParams((1.0,) * 4, 0.1, 0.0, 1.0, 1.0)
    assert uniform.n_peaks == 4
    assert np.allclose(uniform.mode_offsets(), [0.15, 0.05, -0.05, -0.15])


def test_multipeak_param_validation():
    with pytest.raises(ValueError, match="at least one"):
        MultiPeakParams((), 0.1, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="spacing"):
        MultiPeakParams((1.0, 1.0), 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="both_branches adds the mirror ring"):
        MultiPeakParams((1.0,), 0.0, -1.0, 1.0, 1.0)


def test_multipeak_widths():
    params = MultiPeakParams((1.0,), 0.0, 0.0, 1.0, 2.0)
    assert params.widest == 2.0
    assert params.narrowest == 1.0
    for sigma_pump, sigma_match in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match="widths must be positive"):
            MultiPeakParams((1.0,), 0.0, 0.0, sigma_pump, sigma_match)


def test_resolution_refusal_names_point_count():
    with pytest.raises(ValueError, match="points"):
        build_double_gaussian(SIGMA, SIGMA, WavevectorGrid.centered(0.0, 50 * SIGMA, 16))


def test_coverage_warning_on_narrow_grid():
    with pytest.warns(UserWarning, match="clips"):
        build_double_gaussian(SIGMA, SIGMA, centered(2 * SIGMA, 64))
    assert recorded(build_double_gaussian, SIGMA, SIGMA, centered(6 * SIGMA, 64))[1] == []


def test_overlapping_peaks_warn_but_proceed():
    params = MultiPeakParams((1.0, 1.0, 1.0), 3.0 * SIGMA, 0.0, SIGMA, SIGMA)
    grid = centered(3.0 * SIGMA + 5 * SIGMA, 256)
    with pytest.warns(UserWarning, match="overlap"):
        kernel = build_multipeak(params, grid)
    assert kernel.norm() == pytest.approx(1.0, abs=1e-12)


def test_default_grids_center_on_branch():
    def center(grid):
        return 0.5 * (grid.k_min + grid.k_max)

    params = MultiPeakParams((1.0, 1.0, 1.0), 0.168, 1.347, SIGMA, SIGMA)
    gs = default_grid(params, 128, 5.0)
    gi = gs.mirrored()
    assert center(gs) == pytest.approx(1.347 / 2)
    assert center(gi) == pytest.approx(-1.347 / 2)
    assert gs.covers(1.347 / 2 - 0.168, 1.347 / 2 + 0.168)
    both = MultiPeakParams((1.0,) * 3, 0.168, 1.347, SIGMA, SIGMA,
                           both_branches=True)
    gs_b = default_grid(both, 128, 5.0)
    assert center(gs_b) == 0.0 and center(gs_b.mirrored()) == 0.0
    assert gs_b.covers(-1.347 / 2, 1.347 / 2)
    # one mode set per ring; at zero offset the rings coincide and hold one set
    assert both.signal_centers() == pytest.approx(
        [1.347 / 2 + 0.168, 1.347 / 2, 1.347 / 2 - 0.168,
         -1.347 / 2 + 0.168, -1.347 / 2, -1.347 / 2 - 0.168])
    collinear = dataclasses.replace(both, noncollinear_offset=0.0)
    assert collinear.signal_centers() == pytest.approx([0.168, 0.0, -0.168])


def test_mode_spacing_is_the_smallest_gap_between_distinct_centers():
    # to the bit the smallest gap between np.unique's sorted centers
    def unique_gap(params):
        gaps = np.diff(np.unique(params.signal_centers()))
        return float(gaps.min()) if gaps.size else None

    both = MultiPeakParams((1.0,) * 3, 0.168, 1.347, SIGMA, SIGMA, both_branches=True)
    one = dataclasses.replace(both, amplitudes=(1.0,), peak_spacing=0.0)
    # two rings whose centers 1, 0.5, 0, 0, -0.5, -1 share a node at 0
    rings = MultiPeakParams((1.0,) * 3, 0.5, 1.0, SIGMA, SIGMA, both_branches=True)
    assert rings.signal_centers().tolist() == [1.0, 0.5, 0.0, 0.0, -0.5, -1.0]
    for params, expected in ((load_config(THREE).pump, 0.168), (both, 0.168),
                             (dataclasses.replace(both, noncollinear_offset=0.0), 0.168),
                             (one, 1.347), (rings, 0.5)):
        assert type(params.mode_spacing()) is float
        assert params.mode_spacing() == unique_gap(params) == pytest.approx(expected)
    # a single mode has no spacing
    for params in (dataclasses.replace(one, both_branches=False),
                   dataclasses.replace(one, noncollinear_offset=0.0)):
        assert params.mode_spacing() is unique_gap(params) is None


def test_both_branches_point_symmetric():
    params = MultiPeakParams((1.0,), 0.0, 0.2, SIGMA, SIGMA, both_branches=True)
    kernel = build_multipeak(params, default_grid(params, 129, 5.0))
    assert np.allclose(kernel.amplitude, kernel.amplitude[::-1, ::-1], rtol=1e-12, atol=0.0)



def test_from_profiles_validation():
    grid = centered(1.0, 32)
    ones = np.ones(63)
    bad = ones.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TpaKernel.from_profiles(grid, bad, ones)
    with pytest.raises(ValueError, match="finite"):
        TpaKernel.from_profiles(grid, ones, bad)
    with pytest.raises(ValueError, match="identically zero"):
        TpaKernel.from_profiles(grid, np.zeros(63), ones)
    # the pump only at ks + ki = its lowest node, the matching only at the
    # lowest ks - ki: no joint node holds both, so every product is zero
    pump, match = np.zeros(63), np.zeros(63)
    pump[0] = match[0] = 1.0
    with pytest.raises(ValueError, match="identically zero"):
        TpaKernel.from_profiles(grid, pump, match)
    # each profile needs one sample per sum or difference node: 2 * 32 - 1
    for pump, match in ((np.ones(63), np.ones(62)), (np.ones((32, 31)), np.ones(63))):
        for pair in (TpaKernel, JointIntensity):
            with pytest.raises(ValueError, match="shape"):
                pair(grid, pump, match)


@pytest.mark.parametrize("complex_pump", [False, True], ids=["real", "complex"])
def test_kernel_rows_are_the_amplitude_rows(complex_pump):
    grid = centered(1.0, 50)
    n = grid.n_points
    k = sum_coordinate_grid(grid).points()
    pump = np.exp(-k ** 2 / 0.1) * (1.0 + k)
    if complex_pump:
        pump = pump * np.exp(3j * k ** 2)
    kernel = TpaKernel.from_profiles(grid, pump, np.exp(-(k - 0.2) ** 2 / 0.3))
    full = kernel.amplitude
    assert full.dtype == (np.complex128 if complex_pump else np.float64)
    assert np.array_equal(full, joint_array(kernel))
    # blocks of 16 rows leave a ragged last block of 2
    for start in range(0, n, 16):
        stop = min(start + 16, n)
        assert np.array_equal(kernel.rows(start, stop), full[start:stop])
    assert kernel.rows(7, 8).shape == (1, n)
    assert np.array_equal(kernel.rows(n - 3, n), full[n - 3:])


@pytest.mark.parametrize("complex_pump", [False, True], ids=["real", "complex"])
def test_windowed_rows_are_the_slice_of_the_full_rows(complex_pump):
    grid = centered(1.0, 50)
    n = grid.n_points
    k = sum_coordinate_grid(grid).points()
    pump = np.exp(-k ** 2 / 0.1) * (1.0 + k)
    if complex_pump:
        pump = pump * np.exp(3j * k ** 2)
    kernel = TpaKernel.from_profiles(grid, pump, np.exp(-(k - 0.2) ** 2 / 0.3))
    full = joint_array(kernel)
    for start, stop in ((0, 16), (16, 32), (48, 50), (7, 8), (40, 50)):
        for j0, j1 in ((0, n), (0, 1), (n - 1, n), (3, 17), (20, 49), (25, 26)):
            block = kernel._block(start, stop, j0, j1)
            assert block.dtype == full.dtype
            assert np.array_equal(block, full[start:stop, j0:j1])


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
    grid = centered(5 * 1.7 * SIGMA, 80)
    assert build_double_gaussian(SIGMA, 1.7 * SIGMA, grid).amplitude.dtype == np.float64
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.168, 1.347, SIGMA, SIGMA)
    assert build_multipeak(params, default_grid(params, 256, 5.0)).amplitude.dtype == np.float64

    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.6614, regime="collinear")
    tk = sum_coordinate_grid(grid).points()
    chirped = np.exp(-tk ** 2 / (2 * SIGMA ** 2) + 30j * tk)
    resolved = MultiPeakParams((1.0,), 0.0, 0.0, SIGMA, 1.7 * SIGMA)
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
    resolved = MultiPeakParams((1.0,), 0.0, 0.0, SIGMA, 1.7 * SIGMA)
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
    real_i, promoted_i = real.intensity, promoted.intensity
    assert np.array_equal(real_i.at_sums, promoted_i.at_sums)
    assert np.array_equal(real_i.at_differences, promoted_i.at_differences)


def test_marginal_intensity_integrates_to_one():
    grid = centered(10 * SIGMA, 256)
    inten = build_multipeak(MultiPeakParams((1.0,), 0.0, 0.0, SIGMA, 2 * SIGMA), grid).intensity
    k, m = grid.points(), inten.marginal
    assert np.sum(m) * grid.spacing == pytest.approx(1.0, abs=1e-12)
    # marginal of the double Gaussian is Gaussian with variance (a^2+b^2)/8
    var = np.sum(m * k ** 2) * grid.spacing
    assert var == pytest.approx((SIGMA ** 2 + 4 * SIGMA ** 2) / 8.0, rel=1e-9)


def test_swapped_intensity_is_the_transpose():
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.6, 1.347, 0.16, 0.2)
    inten = build_multipeak(params, default_grid(params, 96, 5.0)).intensity
    swapped = inten.swapped
    assert swapped.grid_s == inten.grid_i and swapped.grid_i == inten.grid_s
    assert np.array_equal(joint_array(swapped), joint_array(inten).T)
    twice = swapped.swapped
    assert twice.grid_s == inten.grid_s
    assert np.array_equal(twice.at_differences, inten.at_differences)


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


def comb_params():
    """The three-peak comb on its noncollinear ring, and a grid for it."""
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.168, 8.679653687096893,
                             SIGMA, 0.0031701009425325415)
    return params, default_grid(params, 640, 5.0)


def test_build_from_pump_matches_multipeak():
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    params, grid = comb_params()
    direct = build_multipeak(params, grid)

    tk = sum_coordinate_grid(grid).points()
    pump = np.zeros_like(tk)
    for a, c in zip(params.amplitudes, params.pump_centers()):
        pump += a * np.exp(-((tk - c) ** 2) / (2.0 * params.sigma_pump ** 2))
    resolved = MultiPeakParams((1.0,), 0.0, noncollinear_offset(cfg).offset_um_inv,
                               SIGMA, params.sigma_match)
    rebuilt = build_from_pump(pump, resolved, cfg, grid, "gaussian")
    assert np.max(np.abs(rebuilt.amplitude - direct.amplitude)) < 1e-10 * np.abs(direct.amplitude).max()
    # the scans read either kernel's intensity alike, through the bench slits
    signal, idler = DetectionGeometry().slit_windows()
    center = idler_peak_center(direct.intensity)
    for scan in (lambda inten: singles_scan(inten, signal),
                 lambda inten: singles_scan(inten.swapped, idler),
                 lambda inten: coincidence_scan(inten, center, signal, idler)):
        want, got = scan(direct.intensity).values, scan(rebuilt.intensity).values
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


def pump_kernel(chirp, model):
    """build_from_pump of the comb's pump factor, times exp(i chirp (tk - mean tk)^2)."""
    params, grid = comb_params()
    tk = sum_coordinate_grid(grid).points()
    pump = params.pump_factor(tk)
    if chirp:
        pump = pump * np.exp(1j * chirp * (tk - tk.mean()) ** 2)
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    return build_from_pump(pump, params, cfg, grid, model)


BUILDERS = {
    "multipeak": lambda: build_multipeak(*comb_params()),
    "double-gaussian": lambda: build_double_gaussian(SIGMA, 1.7 * SIGMA,
                                                     centered(5 * 1.7 * SIGMA, 200)),
    "from-pump-comb": lambda: pump_kernel(0.0, "gaussian"),
    "from-pump-sinc": lambda: pump_kernel(0.0, "sinc"),
    "from-pump-chirp": lambda: pump_kernel(3e3, "gaussian"),
}


@pytest.mark.parametrize("build", list(BUILDERS.values()), ids=list(BUILDERS))
def test_every_kernel_carries_its_intensity(build):
    kernel = build()
    inten = kernel.intensity
    expected = np.abs(kernel.amplitude) ** 2
    joint = joint_array(inten)
    assert joint.dtype == np.float64
    assert np.max(np.abs(joint - expected)) <= 1e-15 * expected.max()
    assert np.sum(inten.marginal) * kernel.grid_s.spacing == pytest.approx(1.0, abs=1e-12)
    assert inten.grid_s == kernel.grid_s
    assert kernel.intensity is inten


def uncovered_rows_kernel():
    """A pump at the low end of the sum grid: every row past the first block
    has entries only below the windows' cut, so no row block covers it."""
    grid = centered(1.0, 100)
    k = sum_coordinate_grid(grid).points()
    kernel = TpaKernel.from_profiles(grid, np.exp(-((k + 1.9) / 0.05) ** 2), np.exp(-k ** 2))
    assert sum(stop - start for start, stop, _, _ in kernel._row_blocks) < grid.n_points
    return kernel


PRODUCT_KERNELS = {
    "real": BUILDERS["multipeak"],
    "chirped": BUILDERS["from-pump-chirp"],
    "uncovered-rows": uncovered_rows_kernel,
}


@pytest.mark.parametrize("build", list(PRODUCT_KERNELS.values()), ids=list(PRODUCT_KERNELS))
def test_products_write_the_definition_into_out(build):
    """times of a kernel and of its swap, the adjoint, against the joint
    array's own products, with x as c x N rows, C-ordered or a transposed
    N x c draw, and out filled with NaN: every entry of out is written, rows
    that no block covers with zeros."""
    kernel = build()
    a = joint_array(kernel)
    n = kernel.grid_s.n_points
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((3, n))
    if np.iscomplexobj(a):
        rows = rows + 1j * rng.standard_normal((3, n))
    for x in (rows, np.asfortranarray(rows), rng.standard_normal((n, 3)).T):
        for product, want in ((kernel.times, (a @ x.T).T),
                              (kernel.swapped.times, (a.conj().T @ x.T).T)):
            out = np.full(x.shape, np.nan, np.result_type(kernel.dtype, x))
            assert product(x, out) is out
            assert not np.isnan(out).any()
            assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", list(PRODUCT_KERNELS))
def test_a_kernels_swap_is_its_adjoint(name):
    """A kernel's photon exchange is its conjugate transpose F^H on the mirrored
    grid, a kernel itself, formed once; a real kernel's swap holds views of its
    profiles. Only the chirped kernel differs from its swap, but all three are
    symmetric, F = F^T: each matching profile is a palindrome."""
    kernel = PRODUCT_KERNELS[name]()
    swap = kernel.swapped
    assert np.array_equal(joint_array(swap), joint_array(kernel).conj().T)
    assert swap.grid_s == kernel.grid_i
    assert kernel.swapped is swap and type(swap) is TpaKernel
    twice = swap.swapped
    assert twice.grid_s == kernel.grid_s
    assert np.array_equal(twice.at_sums, kernel.at_sums)
    assert np.array_equal(twice.at_differences, kernel.at_differences)
    if kernel.dtype == np.float64:
        assert np.shares_memory(swap.at_sums, kernel.at_sums)
        assert np.shares_memory(swap.at_differences, kernel.at_differences)
    assert kernel.symmetric


@pytest.mark.parametrize("product", ["times", "adjoint_times"])
def test_products_refuse_an_out_they_cannot_write(product):
    """The one product refuses alike on a kernel and, for the adjoint, on its swap."""
    real, chirped = BUILDERS["multipeak"](), BUILDERS["from-pump-chirp"]()
    if product == "adjoint_times":
        real, chirped = real.swapped, chirped.swapped
    n = real.grid_s.n_points
    x = np.random.default_rng(6).standard_normal((2, n))
    with pytest.raises(ValueError, match="shares memory"):
        real.times(x, x)
    rows = np.zeros((3, n))
    with pytest.raises(ValueError, match="shares memory"):
        real.times(rows[:2], rows[1:])
    for kernel, dtype in ((real, np.float32), (real, np.complex128), (chirped, np.float64)):
        with pytest.raises(TypeError, match="dtype"):
            kernel.times(x, np.empty(x.shape, dtype))
    for shape in ((3, n), (2, n - 1)):
        with pytest.raises(ValueError, match="shape"):
            real.times(x, np.empty(shape))


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
    span = 4.5 / cfg.pump.sigma_pump
    field = hologram.pump_field(cfg.pump, np.linspace(-span, span, 4096))
    grid = cfg.grid
    spectrum = pump_spectrum_from_field(field.x, field.values,
                                        sum_coordinate_grid(grid))
    kernel = build_from_pump(spectrum, cfg.pump, cfg.phase_match, grid, "gaussian")
    direct = build_multipeak(cfg.pump, grid)
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
                               0.01, phase_matching_width(cfg))
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

    resolved = MultiPeakParams((1.0,), 0.0, 0.0, 1.0, phase_matching_width(cfg),
                               both_branches=True)
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
    gs = run.grid
    gi = gs.mirrored()
    tk = sum_coordinate_grid(gs).points()
    pump = np.exp(-(tk ** 2) / (2.0 * run.pump.sigma_pump ** 2))
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
                               1.0, phase_matching_width(cfg))
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
    cfg = load_config(THREE, overrides)
    inten = build_multipeak(cfg.pump, cfg.grid).intensity
    m_s, m_i = inten.marginal, inten.swapped.marginal
    assert m_s.size == signal["n_points"]
    assert np.max(np.abs(m_i[::-1] - m_s)) <= 1e-13 * m_s.max()
