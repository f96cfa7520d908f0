"""The 1D profile paths against the 2D joint-array formulas they replace.

Every kernel here is F = P(ks + ki) M(ks - ki). The kernel build, the
marginals and the slit scans read the pair (P at the sum nodes, M at the
difference nodes) and never form a joint array for a scan. The reference
below forms the joint array on the grids' own nodes, normalizes it by its
Riemann sum and integrates it the way the joint-array code did; the two
agree within 1e-12 of the maximum. The memory tests pin what the profile
paths allocate.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

from spdc_modes.cli import main
from spdc_modes.config import load_config
from spdc_modes.detection import (
    DetectionGeometry,
    _box_integral,
    coincidence_scan,
    idler_peak_center,
)
from spdc_modes.kernel import (
    MultiPeakParams,
    build_multipeak,
    default_grid,
    marginal_intensity,
    multipeak_intensity,
)
from spdc_modes.optics import PumpWidths
from spdc_modes.schmidt import schmidt_decompose

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
TOL = 1e-12


def joint_amplitude(params, gs, gi):
    """F on the joint grids, P(ks + ki) M(ks - ki), normalized by its Riemann sum."""
    ks = gs.points()[:, None]
    ki = gi.points()[None, :]
    amp = params.pump_factor(ks + ki) * params.matching_factor(ks - ki)
    return amp / math.sqrt(np.sum(amp ** 2) * gs.spacing * gi.spacing)


def coincidence_2d(values, gs, gi, geom, center, zero_width):
    """The coincidence rates of a joint intensity array, as the 2D code read them."""
    kf = gi.points()
    if zero_width:
        j = min(max(int(np.searchsorted(kf, center)), 1), kf.size - 1)
        t = (center - kf[j - 1]) / (kf[j] - kf[j - 1])
        return (1.0 - t) * values[:, j - 1] + t * values[:, j]
    width = geom.slit_acceptance("idler")
    seg = 0.5 * (values[:, 1:] + values[:, :-1]) * np.diff(kf)
    cum = np.concatenate((np.zeros((values.shape[0], 1)), np.cumsum(seg, axis=1)), axis=1)
    columns = np.arange(kf.size, dtype=float)

    def at(frac):
        j = min(max(int(math.floor(frac)), 0), kf.size - 2)
        return (1.0 - (frac - j)) * cum[:, j] + (frac - j) * cum[:, j + 1]

    conditional = (at(np.interp(center + width / 2.0, kf, columns))
                   - at(np.interp(center - width / 2.0, kf, columns)))
    ks = gs.points()
    return _box_integral(ks, conditional, ks, geom.slit_acceptance("signal"))


def assert_close(got, want, peak=None):
    """Agreement within TOL of ``peak``, by default the maximum of ``want``."""
    peak = np.max(np.abs(want)) if peak is None else peak
    assert np.max(np.abs(got - want)) <= TOL * peak


def shipped_case(name, *flags):
    overrides = {}
    if flags:
        overrides = {"grid.points": flags[0], "grid.both_branches": True}
    cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.yaml"), overrides)
    return cfg.pump, cfg.grid()


def three_peak_case(n_points, span_sigmas, branch="+"):
    params = MultiPeakParams((0.63, 1.0, 0.63), 0.6, 1.347, PumpWidths(0.16, 0.2),
                             branch=branch)
    return params, default_grid(params, n_points, span_sigmas)


CASES = {
    "single_mode": lambda: shipped_case("single_mode"),
    "three_modes": lambda: shipped_case("three_modes"),
    "crosstalk": lambda: shipped_case("crosstalk"),
    "hologram": lambda: shipped_case("hologram"),
    "single_mode-both": lambda: shipped_case("single_mode", 614),
    "three_modes-both": lambda: shipped_case("three_modes", 841),
    "crosstalk-both": lambda: shipped_case("crosstalk", 841),
    "hologram-both": lambda: shipped_case("hologram", 841),
    # a small grid of an even point count, on either ring choice
    "three-peak": lambda: three_peak_case(160, 5.0),
    "three-peak-both": lambda: three_peak_case(160, 5.0, branch="both"),
    # the amplitude is still 1e-3 of its peak at the corners: pairs whose
    # partner falls off the grid must not count
    "clipped": lambda: three_peak_case(64, 1.5),
}


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request):
    return CASES[request.param]()


def test_kernel_gather_matches_the_joint_formula(case):
    params, gs = case
    assert_close(build_multipeak(params, gs).amplitude,
                 joint_amplitude(params, gs, gs.mirrored()))


def test_marginals_match_the_joint_sums(case):
    params, gs = case
    gi = gs.mirrored()
    values = joint_amplitude(params, gs, gi) ** 2
    inten = multipeak_intensity(params, gs)
    k, signal = marginal_intensity(inten, "signal")
    assert np.array_equal(k, gs.points())
    assert_close(signal, values.sum(axis=1) * gi.spacing)
    k, idler = marginal_intensity(inten, "idler")
    assert np.array_equal(k, gi.points())
    assert_close(idler, values.sum(axis=0) * gs.spacing)


@pytest.mark.parametrize("zero_width", [True, False], ids=["zero-width", "finite"])
def test_coincidence_scans_match_the_joint_columns(case, zero_width):
    params, gs = case
    gi = gs.mirrored()
    values = joint_amplitude(params, gs, gi) ** 2
    inten = multipeak_intensity(params, gs)
    kf = gi.points()
    geom = DetectionGeometry()
    peak = None
    # the peak, a slit between nodes, and slits reaching past either end; the
    # off-peak scans are read against the peak scan's maximum, since the 2D
    # code's cumulative sums carry errors of the whole row's size
    for center in (idler_peak_center(inten), 0.37 * kf[3] + 0.63 * kf[4],
                   kf[0], kf[-2] + 0.5 * gi.spacing):
        got = coincidence_scan(inten, geom, center, zero_width=zero_width)
        want = coincidence_2d(values, gs, gi, geom, center, zero_width)
        peak = np.max(want) if peak is None else peak
        assert np.array_equal(got.positions, gs.points())
        assert_close(got.rates, want, peak)


# ---------------------------------------------------------------------------
# memory: the joint grids hold N^2 float64 values, 8 N^2 bytes
# ---------------------------------------------------------------------------

MEMORY_POINTS = 1024
JOINT_BYTES = 8 * MEMORY_POINTS ** 2
THREE = os.path.join(CONFIG_DIR, "three_modes.yaml")


def traced_peak(call):
    """(result, peak bytes allocated while ``call`` ran)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_build_multipeak_allocates_one_joint_array():
    cfg = load_config(THREE, {"grid.points": MEMORY_POINTS})
    grid = cfg.grid()
    kernel, peak = traced_peak(lambda: build_multipeak(cfg.pump, grid))
    assert kernel.amplitude.nbytes == JOINT_BYTES
    assert peak <= 1.1 * JOINT_BYTES


@pytest.mark.parametrize("argv", [
    ("scan",), ("scan", "--wavelength-avg"), ("fedorov",), ("fedorov", "--zero-width-slits"),
], ids=" ".join)
def test_scan_and_fedorov_hold_no_joint_array(tmp_path, capsys, argv):
    run = [*argv, "--config", THREE, "--out", str(tmp_path),
           "--grid-points", str(MEMORY_POINTS)]
    # a first run pays the one-off costs (lazy imports, caches) outside the trace
    assert main(run) == 0
    code, peak = traced_peak(lambda: main(run))
    capsys.readouterr()
    assert code == 0
    assert peak < 0.25 * JOINT_BYTES


def test_schmidt_decompose_copies_no_joint_array():
    kernel = load_config(THREE, {"grid.points": MEMORY_POINTS}).build_kernel()
    schmidt_decompose(kernel)
    dec, peak = traced_peak(lambda: schmidt_decompose(kernel))
    assert dec.n_modes == 21
    assert peak < 0.5 * JOINT_BYTES
