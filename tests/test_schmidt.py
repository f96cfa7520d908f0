"""Mode decomposition against the closed-form double-Gaussian answer."""

import dataclasses
import math
import os
import random

import numpy as np
import pytest
import yaml

from spdc_modes import kernel as kernel_module
from spdc_modes import schmidt
from spdc_modes.config import load_config, parse_config
from spdc_modes.kernel import (
    MultiPeakParams,
    TpaKernel,
    build_double_gaussian,
    build_from_pump,
    build_multipeak,
    default_grid,
    sum_coordinate_grid,
    sum_difference_nodes,
)
from spdc_modes.optics import PhaseMatchConfig, WavevectorGrid
from spdc_modes.schmidt import schmidt_decompose, schmidt_number

from oracles import (
    analytic_double_gaussian,
    double_gaussian_modes,
    hermite_gauss,
    reconstruct_kernel,
    recorded,
)
from traced import traced_peak


def grid_for(widths, n=161, span=5.0):
    half = span * max(widths)
    return WavevectorGrid.centered(0.0, half, n)


def quad_overlap(f, g, spacing):
    return float(np.sum(f * g) * spacing)


def test_matched_widths_single_mode():
    widths = (1.0, 1.0)
    kernel = build_double_gaussian(*widths, grid_for(widths))
    dec = schmidt_decompose(kernel)
    assert dec.n_modes == 1
    assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-10)
    metrics = schmidt_number(dec)
    assert metrics.schmidt_number == pytest.approx(1.0, abs=1e-12)
    assert metrics.entropy_bits == 0.0
    assert math.copysign(1.0, metrics.entropy_bits) == 1.0
    assert dec.discarded_weight <= 1e-12


def test_width_ratio_two_matches_closed_form():
    widths = (1.0, 2.0)
    kernel = build_double_gaussian(*widths, grid_for(widths, n=321, span=6.0))
    dec = schmidt_decompose(kernel)
    mu = 1.0 / 9.0
    expected = (1.0 - mu) * mu ** np.arange(6)
    lam = dec.coefficients[:6] ** 2
    assert np.allclose(lam, expected, atol=1e-8)
    # the truncation policy clips a ~1e-6 tail, shifting K by a few 1e-7
    metrics = schmidt_number(dec)
    assert metrics.schmidt_number == pytest.approx(1.25, rel=1e-6)
    # every mode: K from all singular values of the kernel
    lam_all = (np.linalg.svd(kernel.amplitude, compute_uv=False) * kernel.grid_s.spacing) ** 2
    assert lam_all.sum() ** 2 / np.sum(lam_all ** 2) == pytest.approx(1.25, rel=1e-12)
    analytic = analytic_double_gaussian(*widths)
    assert analytic.schmidt_number == pytest.approx(1.25, rel=1e-15)
    assert np.allclose(analytic.eigenvalues[:6], expected, rtol=1e-13)
    assert analytic.mode_scale == pytest.approx(1.0)


def test_purity_is_inverse_schmidt_number():
    widths = (1.0, 2.0)
    kernel = build_double_gaussian(*widths, grid_for(widths, n=321, span=6.0))
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
    widths = (1.0, 2.0)
    grid = grid_for(widths, n=321, span=6.0)
    kernel = build_double_gaussian(*widths, grid)
    dec = schmidt_decompose(kernel)
    signal, idler = double_gaussian_modes(*widths, 6, grid)
    for m in range(6):
        s = quad_overlap(dec.signal_modes[m].real, signal[m], grid.spacing)
        i = quad_overlap(dec.idler_modes[m].real, idler[m], grid.spacing)
        # each mode carries an arbitrary overall sign, but signal and idler
        # flip together, so the product is gauge independent
        assert abs(s) > 0.999
        assert abs(i) > 0.999
        assert s * i > 0.998


def reconstruction_error_squared(dec, kernel):
    diff = reconstruct_kernel(dec) - kernel.amplitude
    return float(np.sum(np.abs(diff) ** 2) * kernel.grid_s.spacing * kernel.grid_i.spacing)


def test_reconstruction_matches_kernel():
    widths = (1.0, 2.0)
    kernel = build_double_gaussian(*widths, grid_for(widths, n=321, span=6.0))
    dec = schmidt_decompose(kernel)
    # the kept modes rebuild the kernel up to exactly the weight they discard
    assert dec.discarded_weight <= 1e-6
    assert reconstruction_error_squared(dec, kernel) == pytest.approx(
        dec.discarded_weight, abs=1e-12)


def noise_kernel(n):
    """A kernel of random profiles: its weight spreads over nearly every mode."""
    grid = WavevectorGrid.centered(0.0, 1.0, n)
    return TpaKernel.from_profiles(grid, *np.random.default_rng(0).standard_normal((2, 2 * n - 1)))


def test_mode_cap_reports_discarded_weight(svd_shapes):
    # a noise kernel spreads its weight over every mode: the 64-mode cap
    # binds, and the kept modes fit no basis short of all 160 columns
    kernel = noise_kernel(160)
    grid = kernel.grid_s
    with pytest.warns(UserWarning, match="discards") as caught:
        dec = schmidt_decompose(kernel)
    assert svd_shapes[-1] == (160, 160)
    assert dec.n_modes == 64
    s = np.linalg.svd(kernel.amplitude, compute_uv=False) * grid.spacing
    assert dec.discarded_weight == pytest.approx(1.0 - np.sum(s[:64] ** 2), abs=1e-15)
    assert dec.discarded_weight == pytest.approx(0.18508, abs=1e-5)
    assert reconstruction_error_squared(dec, kernel) == pytest.approx(
        dec.discarded_weight, abs=1e-12)
    warned = [str(w.message) for w in caught if "discards" in str(w.message)]
    assert len(warned) == 1 and "budget" not in warned[0]


@pytest.mark.parametrize("s, kept", [
    # the weight reaches 1 - 1e-6 at the 2nd of 4 values
    (np.sqrt([0.6, 0.4 - 2e-7, 1e-7, 1e-7]), 2),
    # 100 equal weights: the target needs ~all of them
    (np.full(100, 0.1), 64),
    # a basis that misses weight: the target is never reached, so all 4 are kept
    (np.array([0.8, 0.5, 4e-13, 0.0]), 4),
], ids=["energy", "cap", "size"])
def test_mode_count_applies_each_clause_of_the_rule(s, kept):
    assert schmidt._mode_count(s) == kept


def test_rejects_unnormalized_kernel():
    grid = WavevectorGrid.centered(0.0, 5.0, 64)
    # exp(-(ks^2 + ki^2)) = exp(-(ks + ki)^2 / 2) exp(-(ks - ki)^2 / 2)
    sums, differences = sum_difference_nodes(grid)
    pump, match = np.exp(-sums ** 2 / 2.0), np.exp(-differences ** 2 / 2.0)
    raw = TpaKernel(grid, pump.astype(complex), match)
    with pytest.raises(ValueError, match="norm is"):
        schmidt_decompose(raw)
    good = TpaKernel.from_profiles(grid, pump, match)
    schmidt_decompose(good)
    bad = TpaKernel(grid, good.at_sums * 2.0, good.at_differences)
    with pytest.raises(ValueError, match="norm is"):
        schmidt_decompose(bad)


def test_three_peak_modes_stay_in_their_windows():
    sigma = 0.009419280180123796
    spacing = 0.168
    params = MultiPeakParams((0.63, 1.0, 0.63), spacing, 0.0, sigma, sigma,
                             both_branches=True)
    gs = default_grid(params, 512, 6.0)
    dec = schmidt_decompose(build_multipeak(params, gs))
    assert dec.n_modes == 3

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
    small = (1.0, 2.0)
    big = (10.0, 20.0)
    dec_small = schmidt_decompose(build_double_gaussian(*small, grid_for(small, n=321, span=6.0)))
    grid_big = WavevectorGrid.centered(0.0, 6.0 * 20.0, 321)
    dec_big = schmidt_decompose(build_double_gaussian(*big, grid_big))
    n = min(dec_small.n_modes, dec_big.n_modes)
    assert np.allclose(dec_small.coefficients[:n], dec_big.coefficients[:n], atol=1e-12)


def three_mode_kernel():
    sigma_pump, sigma_match = 0.009572439207442883, 0.02041323652329383
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.168, 1.347,
                             sigma_pump, sigma_match)
    return build_multipeak(params, default_grid(params, 512, 6.0))


def double_gaussian_kernel():
    widths = (1.0, 2.0)
    return build_double_gaussian(*widths, grid_for(widths, n=321, span=6.0))


@pytest.mark.parametrize("build", [three_mode_kernel, double_gaussian_kernel])
def test_real_kernel_decomposes_like_its_complex_copy(build):
    real = build()
    promoted = TpaKernel(real.grid_s, real.at_sums.astype(complex), real.at_differences)
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


def dense_triplets(kernel):
    """_leading_triplets from the dense SVD of the whole amplitude, cut by the
    same rule."""
    h = kernel.grid_s.spacing
    u, s, vh = np.linalg.svd(kernel.amplitude, full_matrices=False)
    s = s * math.sqrt(h * h)
    n = schmidt._mode_count(s)
    return s[:n], u[:, :n].T / math.sqrt(h), vh[:n] / math.sqrt(h)


def dense_decompose(kernel, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(schmidt, "_leading_triplets", dense_triplets)
        return schmidt_decompose(kernel)


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


def shipped_config(name, overrides=None):
    return load_config(os.path.join(CONFIG_DIR, f"{name}.yaml"), overrides)


def shipped_kernel(name, overrides=None):
    cfg = shipped_config(name, overrides)
    return build_multipeak(cfg.pump, cfg.grid)


def chirped_kernel():
    """Complex kernel: a quadratic pump chirp that does not factor in ks, ki."""
    grid = grid_for((1.0, 2.0), n=256, span=6.0)
    tk = sum_coordinate_grid(grid).points()
    pump = np.exp(-tk ** 2 / 2.0 + 0.3j * tk ** 2)
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672, regime="collinear")
    resolved = MultiPeakParams((1.0,), 0.0, 0.0, 1.0, 2.0)
    kernel = build_from_pump(pump, resolved, cfg, grid, "gaussian")
    assert kernel.amplitude.dtype == np.complex128
    return kernel


def three_mode_profiles():
    """The shipped three_modes grid and its kernel's (pump, matching) profile pair."""
    cfg = load_config(os.path.join(CONFIG_DIR, "three_modes.yaml"))
    kernel = build_multipeak(cfg.pump, cfg.grid)
    return cfg.grid, kernel.at_sums, kernel.at_differences


def shifted_match_kernel():
    """Real but not symmetric: three_modes with its matching profile moved one
    difference node off its palindrome."""
    grid, pump, match = three_mode_profiles()
    kernel = TpaKernel.from_profiles(grid, pump, np.roll(match, 1))
    assert not kernel.symmetric
    return kernel


def chirped_shifted_match_kernel():
    """Complex and not symmetric: the chirped kernel with its matching profile
    moved one difference node off its palindrome."""
    chirped = chirped_kernel()
    kernel = TpaKernel.from_profiles(chirped.grid_s, chirped.at_sums,
                                     np.roll(chirped.at_differences, 1))
    assert kernel.dtype == np.complex128 and not kernel.symmetric
    return kernel


# one phase per three_modes pump peak, in mode_offsets order
PEAK_PHASES = (1.0, 1j, -1.0)


def phased_kernel(points=512):
    """three_modes with peak phases (1, i, -1): P is complex and M a real
    palindromic Gaussian, so the kernel is symmetric but not Hermitian."""
    cfg = shipped_config("three_modes", {"grid.points": points})
    amplitudes = tuple(phase * a for phase, a in zip(PEAK_PHASES, cfg.pump.amplitudes))
    kernel = build_multipeak(dataclasses.replace(cfg.pump, amplitudes=amplitudes), cfg.grid)
    assert kernel.dtype == np.complex128 and kernel.symmetric
    return kernel


@pytest.mark.parametrize("points", [512, 1024])
def test_a_phased_comb_builds_like_its_hand_written_pump(points):
    # complex peak amplitudes give a complex pump profile: to the bit, the
    # comb summed by hand with the phases on its Gaussians
    cfg = shipped_config("three_modes", {"grid.points": points})
    params = cfg.pump
    sums, differences = sum_difference_nodes(cfg.grid)
    pump = sum(phase * a * np.exp(-(sums - c) ** 2 / (2.0 * params.sigma_pump ** 2))
               for phase, a, c in zip(PEAK_PHASES, params.amplitudes, params.pump_centers()))
    oracle = TpaKernel.from_profiles(cfg.grid, pump, params.matching_factor(differences))
    kernel = phased_kernel(points)
    assert kernel.at_sums.tobytes() == oracle.at_sums.tobytes()
    assert kernel.at_differences.tobytes() == oracle.at_differences.tobytes()


def near_symmetric_kernel():
    """three_modes with a 1e-13 relative asymmetry added to its matching
    profile, inside SYMMETRIC_RTOL: the w x w path takes it."""
    grid, pump, match = three_mode_profiles()
    ramp = np.linspace(-1.0, 1.0, match.size)
    kernel = TpaKernel.from_profiles(grid, pump, match + 5e-14 * np.abs(match).max() * ramp)
    m = kernel.at_differences
    assert np.abs(m - m[::-1]).max() / np.abs(m).max() == pytest.approx(1e-13, rel=1e-2)
    return kernel


def collinear_single_mode():
    """single_mode on the collinear branch."""
    with open(os.path.join(CONFIG_DIR, "single_mode.yaml"), "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["phase_match"]["regime"] = "collinear"
    return parse_config(data)


GAUSSIAN_MATCHED = {
    "single_mode": lambda: shipped_config("single_mode"),
    "three_modes": lambda: shipped_config("three_modes"),
    "three_modes-841-both": lambda: shipped_config(
        "three_modes", {"grid.points": 841, "grid.both_branches": True}),
    "single_mode-614-both": lambda: shipped_config(
        "single_mode", {"grid.points": 614, "grid.both_branches": True}),
    "three_modes-offset-1.2": lambda: shipped_config(
        "three_modes", {"phase_match.offset_override_um_inv": 1.2}),
    "single_mode-collinear": collinear_single_mode,
    "many-modes-2048": lambda: many_mode_config(2048),
}


@pytest.mark.parametrize("config", list(GAUSSIAN_MATCHED.values()), ids=list(GAUSSIAN_MATCHED))
def test_every_gaussian_matched_kernel_takes_the_hermitian_path(config):
    # a comb pump and a Gaussian matching profile, on either branch, off any
    # grid or offset: the w x w Rayleigh-Ritz path is the one commands take
    cfg = config()
    assert build_multipeak(cfg.pump, cfg.grid).symmetric


@pytest.mark.parametrize("build, symmetric", [
    (lambda: shipped_kernel("single_mode"), True),
    (lambda: shipped_kernel("three_modes"), True),
    (lambda: shipped_kernel("crosstalk"), True),
    (lambda: shipped_kernel("hologram"), True),
    (chirped_kernel, True),
    (shifted_match_kernel, False),
    (near_symmetric_kernel, True),
    (chirped_shifted_match_kernel, False),
    (phased_kernel, True),
], ids=["single_mode", "three_modes", "crosstalk", "hologram", "chirped", "shifted-match",
        "near-hermitian", "chirped-shifted-match", "three_modes-phased"])
def test_sketch_matches_dense_svd(build, symmetric, monkeypatch, svd_shapes):
    kernel = build()
    n = kernel.grid_s.n_points
    dec, warned = recorded(schmidt_decompose, kernel)
    # only blocks at most half the kernel's size were decomposed: the w x w
    # Q^H a conj(Q) of a symmetric kernel, the w x N Q^H a of any other
    assert svd_shapes and all(w <= n / 2 and columns == (w if symmetric else n)
                              for w, columns in svd_shapes)
    ref, ref_warned = recorded(dense_decompose, kernel, monkeypatch)
    assert dec.n_modes == ref.n_modes
    assert np.allclose(dec.coefficients, ref.coefficients, rtol=1e-9, atol=0.0)
    diff = reconstruct_kernel(dec) - reconstruct_kernel(ref)
    assert np.abs(diff).max() <= 1e-9 * np.abs(kernel.amplitude).max()
    assert dec.discarded_weight == pytest.approx(ref.discarded_weight, abs=1e-12)
    assert warned == ref_warned
    # mode by mode, degenerate clusters included
    for a, b, grid in ((dec.signal_modes, ref.signal_modes, kernel.grid_s),
                       (dec.idler_modes, ref.idler_modes, kernel.grid_i)):
        overlaps = np.sum(a.conj() * b, axis=1).real * grid.spacing
        assert np.all(overlaps >= 1.0 - 1e-12), np.flatnonzero(overlaps < 1.0 - 1e-12)

    again = schmidt_decompose(kernel)
    assert np.array_equal(again.coefficients, dec.coefficients)
    assert np.array_equal(again.signal_modes, dec.signal_modes)
    assert np.array_equal(again.idler_modes, dec.idler_modes)


@pytest.mark.parametrize("n", [16, 20, 48, 64])
def test_high_rank_kernel_grows_its_basis_to_full_width(n, monkeypatch, svd_shapes):
    """A noise kernel's kept modes fit no basis short of its size, so the
    basis grows to all n columns, where B is the whole kernel in it. At 16
    points (the smallest grid) and 20 the first block is already full; at 48
    the last step is narrower than a doubling."""
    kernel = noise_kernel(n)
    dec = schmidt_decompose(kernel)
    assert svd_shapes[-1] == (n, n)
    ref = dense_decompose(kernel, monkeypatch)
    assert dec.n_modes == ref.n_modes
    assert np.abs(dec.coefficients - ref.coefficients).max() <= 2e-15
    assert dec.discarded_weight == pytest.approx(ref.discarded_weight, abs=1e-15)
    overlaps = np.sum(dec.signal_modes.conj() * ref.signal_modes, axis=1).real * kernel.grid_s.spacing
    assert np.all(overlaps >= 1.0 - 1e-12), np.flatnonzero(overlaps < 1.0 - 1e-12)
    # under a cap of one mode, a 32-wide block has room for that mode (48 and
    # 64 points), but the weight it misses is far above that mode's weight
    svd_shapes.clear()
    monkeypatch.setattr(schmidt, "MAX_MODES", 1)
    one = schmidt_decompose(kernel)
    assert svd_shapes[-1] == (n, n)
    assert one.n_modes == 1
    assert abs(one.coefficients[0] - ref.coefficients[0]) <= 2e-15


def rank_one_kernel(n):
    """exp(-(ks^2 + ki^2)) from its profiles on an n-point grid: symmetric and
    of rank one, built however coarse the grid."""
    grid = WavevectorGrid.centered(0.0, 3.0, n)
    sums, differences = sum_difference_nodes(grid)
    return TpaKernel.from_profiles(grid, np.exp(-sums ** 2 / 2.0), np.exp(-differences ** 2 / 2.0))


@pytest.mark.parametrize("build", [noise_kernel, rank_one_kernel], ids=["noise", "rank-one"])
def test_a_20_point_kernel_takes_one_full_width_step(build, svd_shapes):
    """The first block holds SKETCH_BLOCK + SKETCH_OVERSAMPLE columns, all 20
    here: a first block of SKETCH_BLOCK columns leaves no room for the
    oversampling beyond even one kept mode, so it would only cost a step."""
    kernel = build(20)
    dec = schmidt_decompose(kernel)
    assert svd_shapes == [(20, 20)]
    if build is rank_one_kernel:
        assert dec.n_modes == 1
        assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def sketch_draw(size, *splits):
    """``size`` words of a fresh sketch stream, drawn in calls that end at ``splits``."""
    out, stream = np.empty(size), random.Random(0)
    for start, stop in zip((0, *splits), (*splits, size)):
        schmidt._next_words(stream, out[start:stop])
    return out


def test_the_sketch_stream_does_not_depend_on_how_it_is_drawn():
    """The sketch draws each step's columns as the next words of one stream,
    4096 at a time: a draw split at odd counts, so that its later calls cross
    the 4096-word chunks of one call at other places, gives the same bits as
    one call, and so does a second fresh stream."""
    whole = sketch_draw(10_000).tobytes()
    assert np.array_equal(sketch_draw(8), np.frombuffer(random.Random(0).randbytes(32), "<i4"))
    assert sketch_draw(10_000, 4097).tobytes() == whole
    assert sketch_draw(10_000, 3, 4096, 8191).tobytes() == whole
    assert sketch_draw(10_000).tobytes() == whole


@pytest.mark.parametrize("source", [16, 20, 48, 64, 160,
                                    "single_mode", "three_modes", "crosstalk", "hologram"])
def test_decomposition_never_forms_the_joint_array(source, monkeypatch):
    def refuse(_kernel):
        raise AssertionError("the N x N joint amplitude was formed")

    monkeypatch.setattr(TpaKernel, "amplitude", property(refuse))
    kernel = noise_kernel(source) if isinstance(source, int) else shipped_kernel(source)
    assert schmidt_decompose(kernel).n_modes >= 1


def many_mode_config(points=795):
    """K ~ 10 double Gaussian: 64 capped modes, by default on the coarsest
    grid the builder accepts."""
    with open(os.path.join(CONFIG_DIR, "single_mode.yaml"), "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["pump"].update(envelope_fwhm_um=246.0, matching_width=0.19)
    data["grid"]["points"] = points
    return parse_config(data)


def many_mode_kernel(points):
    cfg = many_mode_config(points)
    return build_multipeak(cfg.pump, cfg.grid)


def test_capped_many_mode_spectrum_matches_closed_form(svd_shapes):
    """K ~ 10 keeps all 64 capped modes; the sketch alone must resolve them."""
    cfg = many_mode_config()
    dec = schmidt_decompose(build_multipeak(cfg.pump, cfg.grid))
    assert svd_shapes and all(shape[0] <= 795 / 2 for shape in svd_shapes)
    analytic = analytic_double_gaussian(cfg.pump.sigma_pump, cfg.pump.sigma_match)
    assert analytic.schmidt_number == pytest.approx(10.0, rel=0.05)
    assert dec.n_modes == 64
    assert np.abs(dec.coefficients ** 2 - analytic.eigenvalues).max() <= 1e-9


def test_decomposition_holds_at_most_2_75_final_bases(svd_shapes):
    """Beside Q^T, the N x w basis, a step holds the kernel's N x c product
    of its c = w / 2 new columns and one 16-column block's QR; a QR of the
    whole N x c product holds about four copies of it."""
    kernel = many_mode_kernel(1024)
    dec, peak = traced_peak(lambda: schmidt_decompose(kernel))
    width = svd_shapes[-1][0]
    assert dec.n_modes == 64
    assert peak <= 2.75 * kernel.dtype.itemsize * kernel.grid_s.n_points * width


def fine_grid_kernel():
    return shipped_kernel("three_modes", {"grid.points": 2048})


@pytest.mark.parametrize("build, modes, bound", [
    (fine_grid_kernel, 21, 2.15),
    (lambda: many_mode_kernel(1024), 64, 2.25),
    (lambda: phased_kernel(1024), 21, 2.6),
], ids=["three_modes-2048", "many-modes-1024", "three_modes-phased-1024"])
def test_decomposition_holds_its_basis_one_work_buffer_and_one_block(build, modes, bound,
                                                                     svd_shapes):
    """Beside Q^T, a step holds one N x c work buffer (c <= w / 2), one row
    block of ROW_BLOCK rows and one 16-column block's QR, and the signal modes
    are formed in Q^T's own rows: about N (w + c + ROW_BLOCK) values and a QR.
    No product holds a per-block temporary: an adjoint product that adds a
    c x (j1 - j0) product per block reads 2.27 final bases on the 2048-point
    kernel. A product allocated beside the Gaussian draw and Q^T, and a
    transposed copy of the modes, would read 3.4 and 2.54 on the real kernels.
    Each kernel is symmetric, the complex one of a phased pump included, so it
    keeps the w x w matrix T; holding the w x N B = Q^H a instead, with its
    growth copy and the N x w factor of its SVD, reads 3.8 on that kernel."""
    kernel = build()
    dec, peak = traced_peak(lambda: schmidt_decompose(kernel))
    width = svd_shapes[-1][0]
    assert all(w == columns for w, columns in svd_shapes)
    assert dec.n_modes == modes
    assert peak <= bound * kernel.dtype.itemsize * kernel.grid_s.n_points * width


def test_each_product_forms_its_row_blocks_in_one_buffer(monkeypatch):
    """Every block the products form has at most ROW_BLOCK rows and is written
    into the buffer the product passes, so no block is a fresh allocation."""
    kernel = fine_grid_kernel()
    blocks = []
    product = TpaKernel._block

    def recording(self, start, stop, j0, j1, buffer=None):
        assert buffer is not None
        block = product(self, start, stop, j0, j1, buffer)
        assert np.shares_memory(block, buffer)
        blocks.append((stop - start, block.nbytes))
        return block

    monkeypatch.setattr(TpaKernel, "_block", recording)
    assert schmidt_decompose(kernel).n_modes == 21
    assert blocks and max(rows for rows, _ in blocks) <= kernel_module.ROW_BLOCK
    # the widest block of this kernel is 0.27 MiB; at 128 rows it would take 1.2 MiB
    assert max(nbytes for _, nbytes in blocks) <= 0.35 * 2 ** 20


def test_mode_signs_agree_between_sketch_and_dense_svd(monkeypatch):
    """Odd modes peak at mirror samples +-k that tie to rounding; the phase
    pivot must not choose between them, or signs ride on last-bit noise."""
    cfg = many_mode_config()
    kernel = build_multipeak(cfg.pump, cfg.grid)
    sketch = schmidt_decompose(kernel)
    dense = dense_decompose(kernel, monkeypatch)
    assert sketch.n_modes == dense.n_modes == 64
    for a, b, grid in ((sketch.signal_modes, dense.signal_modes, kernel.grid_s),
                       (sketch.idler_modes, dense.idler_modes, kernel.grid_i)):
        overlaps = np.sum(a * b, axis=1) * grid.spacing
        assert np.all(overlaps > 0), np.flatnonzero(overlaps <= 0)


# ---------------------------------------------------------------------------
# row blocks formed over the support of the two profiles only
# ---------------------------------------------------------------------------

WINDOWED = {
    "single_mode": lambda: shipped_kernel("single_mode"),
    "three_modes": lambda: shipped_kernel("three_modes"),
    "crosstalk": lambda: shipped_kernel("crosstalk"),
    "hologram": lambda: shipped_kernel("hologram"),
    "chirped": chirped_kernel,
    "many-modes-1024": lambda: many_mode_kernel(1024),
}


def outside_the_windows(kernel):
    """The entries of the amplitude that no row block of the range finder forms."""
    a = kernel.amplitude
    formed = np.zeros(a.shape, bool)
    for start, stop, j0, j1 in kernel._row_blocks:
        formed[start:stop, j0:j1] = True
    return a[~formed]


@pytest.mark.parametrize("name", WINDOWED)
def test_the_windows_leave_out_at_most_the_unit_roundoff_of_the_kernel(name):
    """||E||_F <= u ||a||_F for the entries E outside the windows, so by Weyl's
    inequality no Schmidt coefficient moves by more than u = eps / 2."""
    kernel = WINDOWED[name]()
    left_out = np.linalg.norm(outside_the_windows(kernel))
    assert left_out <= np.finfo(float).eps / 2 * np.linalg.norm(kernel.amplitude)


@pytest.mark.parametrize("n", [20, 160, 300])
def test_a_random_profile_kernel_keeps_its_full_window(n):
    blocks = noise_kernel(n)._row_blocks
    assert blocks == [(start, min(start + kernel_module.ROW_BLOCK, n), 0, n)
                      for start in range(0, n, kernel_module.ROW_BLOCK)]


@pytest.mark.parametrize("name", WINDOWED)
def test_windowed_coefficients_match_the_dense_svd(name, monkeypatch):
    kernel = WINDOWED[name]()
    dec = schmidt_decompose(kernel)
    ref = dense_decompose(kernel, monkeypatch)
    assert dec.n_modes == ref.n_modes
    assert np.abs(dec.coefficients - ref.coefficients).max() <= 2e-15


def test_the_many_mode_kernel_is_formed_over_its_band_only(monkeypatch):
    """The K ~ 10 kernel at 2048 points lies in a narrow band around its
    anti-diagonal: each pass of the range finder forms under a fifth of it."""
    kernel = many_mode_kernel(2048)
    n = kernel.grid_s.n_points
    calls = []
    product = TpaKernel._block

    def recording(self, start, stop, j0, j1, buffer=None):
        block = product(self, start, stop, j0, j1, buffer)
        calls.append((start, block.size))
        return block

    monkeypatch.setattr(TpaKernel, "_block", recording)
    dec = schmidt_decompose(kernel)
    assert dec.n_modes == 64
    passes = sum(1 for start, _size in calls if start == calls[0][0])
    assert sum(size for _start, size in calls) / (passes * n * n) < 0.2
    pump = many_mode_config(2048).pump
    analytic = analytic_double_gaussian(pump.sigma_pump, pump.sigma_match)
    assert np.abs(dec.coefficients ** 2 - analytic.eigenvalues).max() <= 1e-9


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
    dec = schmidt_decompose(build_multipeak(cfg.pump, cfg.grid))
    analytic = analytic_double_gaussian(params.sigma_pump, params.sigma_match)
    shares = np.square(params.amplitudes) / np.sum(np.square(params.amplitudes))
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


@pytest.mark.parametrize("sigma_match, n_modes", [(0.0096, 4), (0.0214, 29)],
                         ids=["matched", "mismatched"])
def test_each_peak_carries_its_amplitude_share(sigma_match, n_modes):
    """Uneven peak amplitudes a_m: the modes on peak m carry a_m^2 / sum a^2 of
    the weight. Matched widths give one mode per peak, with exactly that weight."""
    params = MultiPeakParams((1.0, 0.5, 0.25, 0.8), 0.168, 1.347,
                             0.0096, sigma_match)
    shares = np.square(params.amplitudes) / np.sum(np.square(params.amplitudes))
    dec = schmidt_decompose(build_multipeak(params, default_grid(params, 1024, 8.0)))
    weights = dec.coefficients ** 2
    assert dec.n_modes == n_modes
    if n_modes == 4:
        assert weights == pytest.approx(np.sort(shares)[::-1], abs=1e-12)
    # each mode belongs to the peak nearest its signal-intensity centroid
    intensity = np.abs(dec.signal_modes) ** 2
    centroids = intensity @ dec.grid_s.points() / intensity.sum(axis=1)
    peak = np.abs(centroids[:, None] - params.signal_centers()).argmin(axis=1)
    per_peak = np.bincount(peak, weights=weights, minlength=params.n_peaks)
    assert np.abs(per_peak - shares).max() <= max(dec.discarded_weight, 1e-12)


def own_window_leaks(dec, centers, width, n):
    """Per mode, the intensity share outside the window that holds most of it."""
    k = dec.grid_s.points()
    energy = np.abs(dec.signal_modes[:n]) ** 2 * dec.grid_s.spacing
    outside = np.array([[e[np.abs(k - c) > width / 2.0].sum() for c in centers] for e in energy])
    return outside.min(axis=1)


@pytest.mark.parametrize("dense", [False, True], ids=["sketch", "dense"])
def test_three_modes_stay_in_their_own_peak_windows(dense, monkeypatch):
    cfg = load_config(os.path.join(CONFIG_DIR, "three_modes.yaml"))
    params = cfg.pump
    kernel = build_multipeak(cfg.pump, cfg.grid)
    dec = dense_decompose(kernel, monkeypatch) if dense else schmidt_decompose(kernel)
    leaks = own_window_leaks(dec, params.signal_centers(), params.peak_spacing, 21)
    assert dec.n_modes == 21 and np.all(leaks <= 1e-12), leaks
    if not dense:
        assert schmidt.largest_window_leak(
            dec, params.signal_centers(), params.peak_spacing) == pytest.approx(
                leaks.max(), abs=1e-15)


def test_window_leak_of_a_mode_split_between_two_windows():
    grid = WavevectorGrid.centered(0.0, 4.0, 801)
    hg = hermite_gauss(0, 0.1, grid, center=-1.0)
    split = (hg + hermite_gauss(0, 0.1, grid, center=1.0)) / math.sqrt(2.0)
    modes = np.stack([hg, split])
    dec = schmidt.SchmidtDecomposition(np.array([0.8, 0.6]), modes, modes, grid, 0.0)
    assert schmidt.largest_window_leak(dec, [-1.0, 1.0], 2.0) == pytest.approx(0.5, rel=1e-12)
    one = schmidt.SchmidtDecomposition(np.array([1.0]), modes[:1], modes[:1], grid, 0.0)
    assert schmidt.largest_window_leak(one, [-1.0, 1.0], 2.0) <= 1e-15


def test_an_equal_weight_comb_localises_its_modes_at_the_runs_accuracy(monkeypatch):
    """crosstalk's pump as an equal-weight 8-peak comb at 256 points: its 24
    kept coefficients are three near-degenerate bands of 8, each of which
    must be localised onto the peaks whatever ROW_BLOCK rounds the products
    with. A band m // 8 is Hermite-Gauss order m // 8 on each peak, so a
    mode leaks about what the isolated mode of that order has outside a
    window one spacing wide (1.4e-6 and 2.1e-5 for orders 1 and 2); each
    may leak at most twice that. Modes spread over the comb leak 0.83."""
    with open(os.path.join(CONFIG_DIR, "crosstalk.yaml"), encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    del data["pump"]["side_amplitude"]
    data["pump"].update(peaks=8, peak_spacing_um_inv=0.12, envelope_fwhm_um=100.0,
                        matching_width="derived")
    data["grid"].update(points=256, span_sigmas=8.0)
    cfg = parse_config(data)
    decs = []
    for rows in (32, 16):
        # a fresh kernel, whose row blocks are found at this ROW_BLOCK
        monkeypatch.setattr(kernel_module, "ROW_BLOCK", rows)
        decs.append(schmidt_decompose(build_multipeak(cfg.pump, cfg.grid)))
    assert np.abs(decs[0].signal_modes - decs[1].signal_modes).max() <= 1e-12
    dec, centers, width = decs[0], cfg.pump.signal_centers(), cfg.pump.mode_spacing()
    assert dec.n_modes == 24
    outside = np.abs(dec.grid_s.points() - centers[:, None]) > width / 2.0
    shares = np.abs(dec.signal_modes) ** 2 @ outside.T * dec.grid_s.spacing
    own = shares.argmin(axis=1)
    scale = analytic_double_gaussian(cfg.pump.sigma_pump, cfg.pump.sigma_match).mode_scale
    isolated = np.array([hermite_gauss(m // 8, scale, dec.grid_s, center=centers[w]) ** 2
                         @ outside[w] * dec.grid_s.spacing for m, w in enumerate(own)])
    assert np.all(shares.min(axis=1) <= 2.0 * isolated), shares.min(axis=1) / isolated


@pytest.mark.parametrize("build", [
    lambda: shipped_kernel("single_mode"), lambda: shipped_kernel("three_modes"),
    lambda: shipped_kernel("crosstalk"), lambda: shipped_kernel("hologram"),
    lambda: shipped_kernel("three_modes", {"grid.points": 2048}),
    lambda: shipped_kernel("three_modes", {"grid.points": 841, "grid.both_branches": True}),
    lambda: shipped_kernel("single_mode", {"grid.points": 614, "grid.both_branches": True}),
    phased_kernel,
], ids=["single_mode", "three_modes", "crosstalk", "hologram", "three_modes-2048",
        "three_modes-841-both", "single_mode-614-both", "three_modes-phased"])
def test_idler_modes_are_the_signal_modes_under_exchange(build):
    """On the mirrored grid, Gaussian matching makes F[i, j] = F[j, i]: the
    sum i + j and the difference offset + (i - j) * h read the same either
    way round, whatever the pump's phases. So each idler mode is a unit phase
    times its signal mode node for node, and a degenerate cluster spans the
    same subspace on both photons. Only a :attr:`TpaKernel.symmetric` kernel
    has this: a one-sided sinc matching profile breaks it."""
    kernel = build()
    f = kernel.amplitude
    assert np.max(np.abs(f - f.T)) <= 1e-12 * np.max(np.abs(f))

    dec = schmidt_decompose(kernel)
    c, u, v = dec.coefficients, dec.signal_modes, dec.idler_modes
    start = 0
    for end in range(1, c.size + 1):
        if end < c.size and c[end - 1] - c[end] <= (1.0 - schmidt.ENERGY) * c[0]:
            continue
        if end - start == 1:
            overlap = np.vdot(u[start], v[start])
            phase = overlap / abs(overlap)
            assert np.max(np.abs(v[start] - phase * u[start])) <= 1e-10 * np.max(np.abs(u[start]))
        else:
            # projectors onto the cluster, from unit vectors sqrt(h) * mode
            proj_u, proj_v = (m[start:end].T @ m[start:end].conj() * kernel.grid_s.spacing
                              for m in (u, v))
            assert np.max(np.abs(proj_u - proj_v)) <= 1e-10
        start = end
