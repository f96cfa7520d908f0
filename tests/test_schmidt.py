"""Mode decomposition against the closed-form double-Gaussian answer."""

import math
import os

import numpy as np
import pytest
import yaml

from spdc_modes import schmidt
from spdc_modes.config import load_config, parse_config
from spdc_modes.kernel import (
    MultiPeakParams,
    PumpSpectrum,
    TpaKernel,
    build_double_gaussian,
    build_from_pump,
    build_multipeak,
    default_grids,
    sum_coordinate_grid,
)
from spdc_modes.optics import PhaseMatchConfig, PumpWidths, WavevectorGrid
from spdc_modes.schmidt import (
    SV_FLOOR,
    analytic_double_gaussian,
    hermite_gauss,
    reconstruct_kernel,
    schmidt_decompose,
    schmidt_number,
)


def grid_for(widths, n=161, span=5.0):
    half = span * max(widths.sigma_pump, widths.sigma_match)
    return WavevectorGrid.centered(0.0, half, n)


def quad_overlap(f, g, spacing):
    return float(np.sum(f * g) * spacing)


def test_matched_widths_single_mode():
    widths = PumpWidths(1.0, 1.0)
    kernel = build_double_gaussian(widths, grid_for(widths))
    dec = schmidt_decompose(kernel)
    assert dec.n_modes == 1
    assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-10)
    metrics = schmidt_number(dec)
    assert metrics.schmidt_number == pytest.approx(1.0, abs=1e-12)
    assert metrics.entropy_bits == 0.0
    assert math.copysign(1.0, metrics.entropy_bits) == 1.0
    assert dec.discarded_weight <= 1e-12


def test_width_ratio_two_matches_closed_form():
    widths = PumpWidths(1.0, 2.0)
    kernel = build_double_gaussian(widths, grid_for(widths, n=321, span=6.0))
    dec = schmidt_decompose(kernel)
    mu = 1.0 / 9.0
    expected = (1.0 - mu) * mu ** np.arange(6)
    lam = dec.coefficients[:6] ** 2
    assert np.allclose(lam, expected, atol=1e-8)
    # default truncation clips a ~1e-6 tail, shifting K by a few 1e-7
    metrics = schmidt_number(dec)
    assert metrics.schmidt_number == pytest.approx(1.25, rel=1e-6)
    full = schmidt_number(schmidt_decompose(kernel, truncation=1.0))
    assert full.schmidt_number == pytest.approx(1.25, rel=1e-12)
    analytic = analytic_double_gaussian(widths)
    assert analytic.schmidt_number == pytest.approx(1.25, rel=1e-15)
    assert np.allclose(analytic.eigenvalues[:6], expected, rtol=1e-13)
    assert analytic.mode_scale == pytest.approx(1.0)


def test_purity_is_inverse_schmidt_number():
    widths = PumpWidths(1.0, 2.0)
    kernel = build_double_gaussian(widths, grid_for(widths, n=321, span=6.0))
    metrics = schmidt_number(schmidt_decompose(kernel))
    assert metrics.purity * metrics.schmidt_number == pytest.approx(1.0, abs=1e-12)


def test_hermite_gauss_orthonormal():
    grid = WavevectorGrid.centered(0.0, 8.0, 801)
    modes = np.stack([hermite_gauss(n, 1.0, grid) for n in range(8)])
    gram = modes @ modes.T * grid.spacing
    assert np.allclose(gram, np.eye(8), atol=1e-8)


def test_hermite_gauss_order_three_sign_changes():
    grid = WavevectorGrid.centered(0.0, 8.0, 2001)
    psi = hermite_gauss(3, 1.0, grid)
    signs = np.sign(psi[np.abs(psi) > 1e-12])
    changes = np.count_nonzero(np.diff(signs) != 0)
    assert changes == 3


def test_hermite_gauss_narrow_grid_warns():
    grid = WavevectorGrid.centered(0.0, 1.0, 64)
    with pytest.warns(UserWarning, match="holds only"):
        hermite_gauss(0, 1.0, grid)


def test_hermite_gauss_validation():
    grid = WavevectorGrid.centered(0.0, 5.0, 64)
    with pytest.raises(ValueError, match="order"):
        hermite_gauss(-1, 1.0, grid)
    with pytest.raises(ValueError, match="scale"):
        hermite_gauss(0, 0.0, grid)
    far = WavevectorGrid.centered(100.0, 1.0, 17)
    with pytest.warns(UserWarning, match="holds only"):
        with pytest.raises(ValueError, match="vanished"):
            hermite_gauss(0, 1.0, far)


def test_modes_match_hermite_gauss_pairs():
    widths = PumpWidths(1.0, 2.0)
    grid = grid_for(widths, n=321, span=6.0)
    kernel = build_double_gaussian(widths, grid)
    dec = schmidt_decompose(kernel)
    analytic = analytic_double_gaussian(widths, m_max=6, grid=grid)
    for m in range(6):
        s = quad_overlap(dec.signal_modes[m].real, analytic.signal_modes[m], grid.spacing)
        i = quad_overlap(dec.idler_modes[m].real, analytic.idler_modes[m], grid.spacing)
        # each mode carries an arbitrary overall sign, but signal and idler
        # flip together, so the product is gauge independent
        assert abs(s) > 0.999
        assert abs(i) > 0.999
        assert s * i > 0.998


def test_reconstruction_matches_kernel():
    widths = PumpWidths(1.0, 2.0)
    kernel = build_double_gaussian(widths, grid_for(widths, n=321, span=6.0))
    dec = schmidt_decompose(kernel, truncation=1.0)
    rebuilt = reconstruct_kernel(dec)
    err = np.sqrt(np.sum(np.abs(rebuilt - kernel.amplitude) ** 2)
                  * kernel.grid_s.spacing * kernel.grid_i.spacing)
    assert err < 1e-8


def test_int_truncation_reports_discarded_weight():
    widths = PumpWidths(1.0, 2.0)
    kernel = build_double_gaussian(widths, grid_for(widths, n=321, span=6.0))
    dec = schmidt_decompose(kernel, truncation=1)
    assert dec.n_modes == 1
    assert dec.discarded_weight == pytest.approx(1.0 / 9.0, abs=1e-8)
    assert any("discards" in w for w in dec.warnings)


def test_truncation_argument_validation():
    widths = PumpWidths(1.0, 1.0)
    kernel = build_double_gaussian(widths, grid_for(widths))
    with pytest.raises(ValueError, match="mode count"):
        schmidt_decompose(kernel, truncation=0)
    with pytest.raises(ValueError, match="energy target"):
        schmidt_decompose(kernel, truncation=1.5)
    with pytest.raises(TypeError, match="truncation"):
        schmidt_decompose(kernel, truncation="3")
    with pytest.raises(TypeError, match="truncation"):
        schmidt_decompose(kernel, truncation=True)


def test_numpy_integer_truncation_equals_int():
    kernel = double_gaussian_kernel()
    dec = schmidt_decompose(kernel, truncation=np.int64(3))
    ref = schmidt_decompose(kernel, truncation=3)
    assert dec.n_modes == 3
    assert np.array_equal(dec.coefficients, ref.coefficients)
    assert np.array_equal(dec.signal_modes, ref.signal_modes)
    assert np.array_equal(dec.idler_modes, ref.idler_modes)


def test_rejects_unnormalized_kernel():
    grid = WavevectorGrid.centered(0.0, 5.0, 64)
    k = grid.points()
    amp = np.exp(-np.add.outer(k ** 2, k ** 2))
    raw = TpaKernel(grid, grid, amp.astype(complex), normalized=False)
    with pytest.raises(ValueError, match="must be normalized"):
        schmidt_decompose(raw)
    good = TpaKernel.from_array(grid, grid, amp)
    bad = TpaKernel(grid, grid, good.amplitude * 2.0, normalized=True)
    with pytest.raises(ValueError, match="norm is"):
        schmidt_decompose(bad)


def test_three_peak_modes_stay_in_their_windows():
    sigma = 0.009419280180123796
    spacing = 0.168
    params = MultiPeakParams(3, spacing, 0.0, PumpWidths(sigma, sigma), side_amplitude=0.63)
    gs, gi = default_grids(params, 512, 6.0, "both")
    kernel = build_multipeak(params, gs, gi, "both")
    dec = schmidt_decompose(kernel, truncation=3)

    # separable per-peak factors: coefficients track the pump weights
    assert dec.coefficients[0] ** 2 / dec.coefficients[1] ** 2 == pytest.approx(
        (1.0 / 0.63) ** 2, rel=1e-9)
    assert dec.coefficients[1] == pytest.approx(dec.coefficients[2], rel=1e-9)

    k = gs.points()
    energy = np.abs(dec.signal_modes) ** 2 * gs.spacing
    # the leading mode lives on the center peak; the degenerate side pair is
    # localised, lower side first
    assert energy[0][np.abs(k) <= spacing / 2.0].sum() >= 1.0 - 1e-9
    assert energy[1][k < -spacing / 2.0].sum() >= 1.0 - 1e-9
    assert energy[2][k > spacing / 2.0].sum() >= 1.0 - 1e-9


def test_scale_invariant_spectrum():
    small = PumpWidths(1.0, 2.0)
    big = PumpWidths(10.0, 20.0)
    dec_small = schmidt_decompose(build_double_gaussian(small, grid_for(small, n=321, span=6.0)))
    grid_big = WavevectorGrid.centered(0.0, 6.0 * 20.0, 321)
    dec_big = schmidt_decompose(build_double_gaussian(big, grid_big))
    n = min(dec_small.n_modes, dec_big.n_modes)
    assert np.allclose(dec_small.coefficients[:n], dec_big.coefficients[:n], atol=1e-12)


def three_mode_kernel():
    sigma_pump, sigma_match = 0.009572439207442883, 0.02041323652329383
    params = MultiPeakParams(3, 0.168, 1.347, PumpWidths(sigma_pump, sigma_match),
                             side_amplitude=0.63)
    gs, gi = default_grids(params, 512, 6.0, "+")
    return build_multipeak(params, gs, gi, "+")


def double_gaussian_kernel():
    widths = PumpWidths(1.0, 2.0)
    return build_double_gaussian(widths, grid_for(widths, n=321, span=6.0))


@pytest.mark.parametrize("build", [three_mode_kernel, double_gaussian_kernel])
def test_real_kernel_decomposes_like_its_complex_copy(build):
    real = build()
    promoted = TpaKernel(real.grid_s, real.grid_i, real.amplitude.astype(complex))
    dec_real = schmidt_decompose(real)
    dec_complex = schmidt_decompose(promoted)
    assert dec_real.signal_modes.dtype == np.float64
    assert dec_real.n_modes == dec_complex.n_modes
    assert np.allclose(dec_real.coefficients, dec_complex.coefficients, rtol=1e-9, atol=0.0)
    # degenerate coefficient pairs leave the modes free to rotate within the
    # pair, so compare what the modes rebuild rather than the modes themselves
    diff = reconstruct_kernel(dec_real) - reconstruct_kernel(dec_complex)
    assert np.abs(diff).max() <= 1e-9 * np.abs(real.amplitude).max()


# ---------------------------------------------------------------------------
# the sketched decomposition against the dense SVD
# ---------------------------------------------------------------------------

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def dense_triplets(a, truncation):
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > SV_FLOOR * s[0]
    return u[:, keep], s[keep], vh[keep, :]


def dense_decompose(kernel, monkeypatch, truncation=None):
    with monkeypatch.context() as patch:
        patch.setattr(schmidt, "_leading_triplets", dense_triplets)
        return schmidt_decompose(kernel, truncation)


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices passed to numpy.linalg.svd, in call order."""
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def shipped_kernel(name):
    return load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")).build_kernel()


def chirped_kernel():
    """Complex kernel: a quadratic pump chirp that does not factor in ks, ki."""
    widths = PumpWidths(1.0, 2.0)
    grid = grid_for(widths, n=256, span=6.0)
    tk = sum_coordinate_grid(grid, grid).points()
    pump = PumpSpectrum(tk, np.exp(-tk ** 2 / 2.0 + 0.3j * tk ** 2))
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672, regime="collinear")
    resolved = MultiPeakParams(1, 0.0, 0.0, PumpWidths(1.0, 2.0))
    kernel = build_from_pump(pump, resolved, cfg, grid, grid, "gaussian")
    assert kernel.amplitude.dtype == np.complex128
    return kernel


@pytest.mark.parametrize("build", [
    lambda: shipped_kernel("single_mode"),
    lambda: shipped_kernel("three_modes"),
    lambda: shipped_kernel("crosstalk"),
    lambda: shipped_kernel("hologram"),
    chirped_kernel,
], ids=["single_mode", "three_modes", "crosstalk", "hologram", "chirped"])
def test_sketch_matches_dense_svd(build, monkeypatch, svd_shapes):
    kernel = build()
    dec = schmidt_decompose(kernel)
    # only blocks at most half the kernel's size were decomposed
    assert svd_shapes and all(shape[0] <= min(kernel.amplitude.shape) / 2 for shape in svd_shapes)
    ref = dense_decompose(kernel, monkeypatch)
    assert dec.n_modes == ref.n_modes
    assert np.allclose(dec.coefficients, ref.coefficients, rtol=1e-9, atol=0.0)
    diff = reconstruct_kernel(dec) - reconstruct_kernel(ref)
    assert np.abs(diff).max() <= 1e-9 * np.abs(kernel.amplitude).max()
    assert dec.discarded_weight == pytest.approx(ref.discarded_weight, abs=1e-12)
    assert dec.warnings == ref.warnings
    # mode by mode, degenerate clusters included
    for a, b, grid in ((dec.signal_modes, ref.signal_modes, kernel.grid_s),
                       (dec.idler_modes, ref.idler_modes, kernel.grid_i)):
        overlaps = np.sum(a.conj() * b, axis=1).real * grid.spacing
        assert np.all(overlaps >= 1.0 - 1e-12), np.flatnonzero(overlaps < 1.0 - 1e-12)

    again = schmidt_decompose(kernel)
    assert np.array_equal(again.coefficients, dec.coefficients)
    assert np.array_equal(again.signal_modes, dec.signal_modes)
    assert np.array_equal(again.idler_modes, dec.idler_modes)


def test_high_rank_kernel_falls_back_to_dense(monkeypatch, svd_shapes):
    grid = WavevectorGrid.centered(0.0, 1.0, 64)
    noise = np.random.default_rng(0).standard_normal((64, 64))
    kernel = TpaKernel.from_array(grid, grid, noise)
    dec = schmidt_decompose(kernel)
    assert svd_shapes[-1] == (64, 64)
    ref = dense_decompose(kernel, monkeypatch)
    assert np.array_equal(dec.coefficients, ref.coefficients)
    assert np.array_equal(dec.signal_modes, ref.signal_modes)
    # one kept mode leaves room in a 32-wide block, but the weight the block
    # misses is far above that mode's weight
    svd_shapes.clear()
    one = schmidt_decompose(kernel, truncation=1)
    assert svd_shapes[-1] == (64, 64)
    assert np.array_equal(one.coefficients, ref.coefficients[:1])


def test_full_weight_target_runs_the_dense_svd(monkeypatch, svd_shapes):
    kernel = double_gaussian_kernel()
    dec = schmidt_decompose(kernel, truncation=1.0)
    assert svd_shapes == [(321, 321)]
    ref = dense_decompose(kernel, monkeypatch, truncation=1.0)
    assert np.array_equal(dec.coefficients, ref.coefficients)
    assert np.array_equal(dec.signal_modes, ref.signal_modes)


def many_mode_config():
    """K ~ 10 double Gaussian: 64 capped modes on the coarsest grid the builder accepts."""
    with open(os.path.join(CONFIG_DIR, "single_mode.yaml"), "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["pump"].update(envelope_fwhm_um=246.0, matching_width=0.19)
    data["grid"]["points"] = 795
    return parse_config(data)


def test_capped_many_mode_spectrum_matches_closed_form(svd_shapes):
    """K ~ 10 keeps all 64 capped modes; the sketch alone must resolve them."""
    cfg = many_mode_config()
    dec = schmidt_decompose(cfg.build_kernel())
    assert svd_shapes and all(shape[0] <= 795 / 2 for shape in svd_shapes)
    analytic = analytic_double_gaussian(cfg.pump.widths, m_max=64)
    assert analytic.schmidt_number == pytest.approx(10.0, rel=0.05)
    assert dec.n_modes == 64
    assert np.abs(dec.coefficients ** 2 - analytic.eigenvalues).max() <= 1e-9


def test_mode_signs_agree_between_sketch_and_dense_svd(monkeypatch):
    """Odd modes peak at mirror samples +-k that tie to rounding; the phase
    pivot must not choose between them, or signs ride on last-bit noise."""
    kernel = many_mode_config().build_kernel()
    sketch = schmidt_decompose(kernel)
    dense = dense_decompose(kernel, monkeypatch)
    assert sketch.n_modes == dense.n_modes == 64
    for a, b, grid in ((sketch.signal_modes, dense.signal_modes, kernel.grid_s),
                       (sketch.idler_modes, dense.idler_modes, kernel.grid_i)):
        overlaps = np.sum(a * b, axis=1) * grid.spacing
        assert np.all(overlaps > 0), np.flatnonzero(overlaps <= 0)


# ---------------------------------------------------------------------------
# separated modes of a multi-peak pump
# ---------------------------------------------------------------------------

def test_three_modes_follow_the_per_peak_closed_form():
    """Peaks far apart against their widths: the Schmidt spectrum is the union
    of per-peak double-Gaussian laws, weights (w_p^2 / sum w^2)(1 - mu) mu^m,
    and each mode is the Hermite-Gauss function of its order on its own peak.
    Equal side peaks make degenerate pairs, which come out ordered by position."""
    cfg = load_config(os.path.join(CONFIG_DIR, "three_modes.yaml"))
    params = cfg.pump
    dec = schmidt_decompose(cfg.build_kernel())
    analytic = analytic_double_gaussian(params.widths)
    shares = params.weights() ** 2 / np.sum(params.weights() ** 2)
    # (weight, signal center, order), heaviest first; the side peaks' weights
    # are bitwise equal, so ties sort by position
    expected = sorted(((share * lam, center, m)
                       for share, center in zip(shares, params.signal_centers())
                       for m, lam in enumerate(analytic.eigenvalues)),
                      key=lambda t: (-t[0], t[1]))[:dec.n_modes]
    assert dec.n_modes == 21
    assert np.abs(dec.coefficients ** 2 - [w for w, _c, _m in expected]).max() <= 1e-12
    for j, (_w, center, m) in enumerate(expected):
        # the idler partner sits one ring offset below its signal mode
        for modes, grid, c in ((dec.signal_modes, dec.grid_s, center),
                               (dec.idler_modes, dec.grid_i, center - params.noncollinear_offset)):
            hg = hermite_gauss(m, analytic.mode_scale, grid, center=c)
            assert abs(np.sum(modes[j] * hg) * grid.spacing) >= 1.0 - 1e-12, (j, m, c)


def own_window_leaks(dec, centers, width, n):
    """Per mode, the intensity share outside the window that holds most of it."""
    k = dec.grid_s.points()
    energy = np.abs(dec.signal_modes[:n]) ** 2 * dec.grid_s.spacing
    outside = np.array([[e[np.abs(k - c) > width / 2.0].sum() for c in centers] for e in energy])
    return outside.min(axis=1)


@pytest.mark.parametrize("truncation", [None, 1.0], ids=["sketch", "dense"])
def test_three_modes_stay_in_their_own_peak_windows(truncation):
    cfg = load_config(os.path.join(CONFIG_DIR, "three_modes.yaml"))
    params = cfg.pump
    dec = schmidt_decompose(cfg.build_kernel(), truncation)
    leaks = own_window_leaks(dec, params.signal_centers(), params.peak_spacing, 21)
    assert np.all(leaks <= 1e-12), leaks
    if truncation is None:
        assert schmidt.largest_window_leak(
            dec, params.signal_centers(), params.peak_spacing) == pytest.approx(
                leaks.max(), abs=1e-15)


def test_window_leak_of_a_mode_split_between_two_windows():
    grid = WavevectorGrid.centered(0.0, 4.0, 801)
    hg = hermite_gauss(0, 0.1, grid, center=-1.0)
    split = (hg + hermite_gauss(0, 0.1, grid, center=1.0)) / math.sqrt(2.0)
    modes = np.stack([hg, split])
    dec = schmidt.SchmidtDecomposition(np.array([0.8, 0.6]), modes, modes, grid, grid, 0.0)
    assert schmidt.largest_window_leak(dec, [-1.0, 1.0], 2.0) == pytest.approx(0.5, rel=1e-12)
    one = schmidt.SchmidtDecomposition(np.array([1.0]), modes[:1], modes[:1], grid, grid, 0.0)
    assert schmidt.largest_window_leak(one, [-1.0, 1.0], 2.0) <= 1e-15
