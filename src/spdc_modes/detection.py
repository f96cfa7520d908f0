"""Slit-scan observables on joint intensities.

Scans emulate a far-field measurement: a slit of finite width selects a
window of transverse wavevector, and the count rate is the intensity
integrated over that window. Everything here works directly in
wavevector space (1/um); :class:`DetectionGeometry` owns the conversion
from bench units (mm at the Fourier plane of a lens) and the spectral
filter placed before the detectors.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
# scipy's package loads scipy.special on first access, so only crosstalk pays for it
import scipy

from .kernel import JointIntensity, MultiPeakParams, check_grids, sum_difference_nodes
from .optics import GAUSSIAN_FWHM_FACTOR, PhaseMatchConfig, WavevectorGrid


@dataclass(frozen=True)
class DetectionGeometry:
    """Far-field detection bench: lens, slits, and spectral filter."""

    focal_length_mm: float = 100.0
    slit_width_signal_mm: float = 0.2
    slit_width_idler_mm: float = 0.4
    central_wavelength_nm: float = 810.0
    filter_fwhm_nm: float = 10.0
    medium_index: float = 1.0

    def __post_init__(self):
        for name in ("focal_length_mm", "slit_width_signal_mm", "slit_width_idler_mm",
                     "central_wavelength_nm", "filter_fwhm_nm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.medium_index < 1.0:
            raise ValueError(f"medium index must be >= 1, got {self.medium_index}")

    def position_to_wavevector(self, x_mm: float) -> float:
        """Transverse wavevector (1/um) sampled at focal-plane position x."""
        lam_um = self.central_wavelength_nm * 1e-3
        return 2.0 * math.pi * self.medium_index / lam_um * (x_mm / self.focal_length_mm)

    def slit_windows(self) -> tuple:
        """(signal, idler) wavevector windows (1/um) admitted by the two slits."""
        return (self.position_to_wavevector(self.slit_width_signal_mm),
                self.position_to_wavevector(self.slit_width_idler_mm))


def _box_integral(x: np.ndarray, y: np.ndarray, centers: np.ndarray,
                  width: float) -> np.ndarray:
    """Integral of y over [c - width/2, c + width/2] for each center.

    Cumulative trapezoid plus linear interpolation; the cumulative is
    clamped at the ends, so the profile counts as zero outside its grid.
    """
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))
    upper = np.interp(centers + width / 2.0, x, cum)
    lower = np.interp(centers - width / 2.0, x, cum)
    return upper - lower


def singles_scan(inten: JointIntensity, window: Optional[float]) -> Profile1D:
    """Signal rate at every grid node, idler integrated out, through a slit ``window``
    wide (1/um; None is the ideal zero-width slit). The idler's is that of ``inten.swapped``."""
    k, marginal = inten.grid_s.points(), inten.marginal
    return Profile1D(k, marginal if window is None else _box_integral(k, marginal, k, window))


def coincidence_scan(inten: JointIntensity, fixed_center: float, signal_window: Optional[float],
                     idler_window: Optional[float]) -> Profile1D:
    """Two-detector rate at every signal-grid node, idler slit parked at ``fixed_center``.

    Each window is its slit's width in 1/um, or None for the ideal
    zero-width slit. Only the idler columns the slit reaches are read, each
    off the two profiles of ``inten``.
    """
    kf = inten.grid_i.points()
    if not (kf[0] <= fixed_center <= kf[-1]):
        raise ValueError(
            f"fixed idler slit center {fixed_center:.4g} lies outside the grid "
            f"[{kf[0]:.4g}, {kf[-1]:.4g}]"
        )

    if idler_window is None:
        # exact slice: interpolate along the fixed axis
        j = np.searchsorted(kf, fixed_center)
        j = min(max(j, 1), kf.size - 1)
        t = (fixed_center - kf[j - 1]) / (kf[j] - kf[j - 1])
        j_lo, weights = j - 1, np.array([1.0 - t, t])
    else:
        # the slit integral is the cumulative trapezoid along the idler axis,
        # interpolated linearly at the slit's fractional column edges lo and hi:
        # segment k counts in full between them, and in part at either end
        j_lo, t_lo = _fractional_column(fixed_center - idler_window / 2.0, kf)
        j_hi, t_hi = _fractional_column(fixed_center + idler_window / 2.0, kf)
        k = np.arange(j_hi - j_lo + 1)
        fraction = (k < j_hi - j_lo) + t_hi * (k == j_hi - j_lo) - t_lo * (k == 0)
        half = 0.5 * fraction * np.diff(kf[j_lo:j_hi + 2])
        # segment k weighs its two end columns k and k + 1 by half its share
        weights = np.convolve(half, [1.0, 1.0])
    ks = inten.grid_s.points()
    conditional = inten.weighted_columns(j_lo, weights)
    return Profile1D(ks, conditional if signal_window is None
                     else _box_integral(ks, conditional, ks, signal_window))


def _fractional_column(k: float, kf: np.ndarray) -> tuple:
    """(j, t) with k at the fractional column j + t of the nodes kf, linearly
    interpolated, and j clamped to a segment start, 0..kf.size - 2."""
    frac_index = np.interp(k, kf, np.arange(kf.size, dtype=float))
    j = min(max(int(math.floor(frac_index)), 0), kf.size - 2)
    return j, frac_index - j


# ---------------------------------------------------------------------------
# peak and width extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Profile1D:
    """Values sampled on a 1-D axis: a scan's rate versus slit-center
    wavevector (1/um), or a complex field versus transverse position (um)."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise ValueError("x and values must be matching 1D arrays")


def _parabolic_vertex(x: np.ndarray, y: np.ndarray, i: int) -> tuple:
    """Vertex of the parabola through points i-1, i, i+1 (uniform grids only)."""
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom >= 0:
        return x[i], y[i]
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    h = x[i + 1] - x[i]
    return x[i] + shift * h, y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift


def find_peaks(profile: Profile1D, min_height_frac: float = 0.2) -> tuple:
    """(positions, heights) of local maxima, parabolic sub-grid refinement.

    Keeps maxima at least ``min_height_frac`` of the global maximum; plateau
    points count once at their left edge.
    """
    x, y = profile.x, profile.values
    if y.size < 3:
        raise ValueError("need at least 3 samples to locate peaks")
    threshold = min_height_frac * y.max()
    pos, height = [], []
    for i in range(1, y.size - 1):
        if y[i] >= threshold and y[i] > y[i - 1] and y[i] >= y[i + 1]:
            if y[i] == y[i + 1]:  # plateau: skip unless it ends downward
                j = i
                while j < y.size - 1 and y[j] == y[j + 1]:
                    j += 1
                if j == y.size - 1 or y[j + 1] > y[j]:
                    continue
            p, h = _parabolic_vertex(x, y, i)
            pos.append(p)
            height.append(h)
    return np.array(pos), np.array(height)


def _splits_at_half_max(y: np.ndarray) -> bool:
    """Whether the samples at or above half the maximum form more than one run."""
    return bool(np.any(np.diff(np.flatnonzero(y >= y.max() / 2.0)) > 1))


def fwhm_of(profile: Profile1D, window: Optional[tuple] = None) -> float:
    """Full width at half maximum of a single-peaked real profile.

    ``window=(lo, hi)`` restricts the analysis first. The half-max crossings
    are walked with linear interpolation, and the above-half region must be
    contiguous.
    """
    x, y = profile.x, profile.values
    if window is not None:
        lo, hi = window
        sel = (x >= lo) & (x <= hi)
        if sel.sum() < 5:
            raise ValueError(f"window [{lo}, {hi}] keeps fewer than 5 samples")
        x, y = x[sel], y[sel]

    peak = y.max()
    if peak <= 0:
        raise ValueError("spectrum is empty; no width to measure")

    if _splits_at_half_max(y):
        raise ValueError(
            "multiple disjoint regions sit above half maximum; pass a window "
            "around one peak to measure it alone"
        )
    half = peak / 2.0
    idx = np.flatnonzero(y >= half)
    i_lo, i_hi = idx[0], idx[-1]
    if i_lo == 0 or i_hi == y.size - 1:
        raise ValueError("peak is cut off by the sampled range")
    # linear crossing on each flank
    left = x[i_lo - 1] + (half - y[i_lo - 1]) / (y[i_lo] - y[i_lo - 1]) * (x[i_lo] - x[i_lo - 1])
    right = x[i_hi] + (half - y[i_hi]) / (y[i_hi + 1] - y[i_hi]) * (x[i_hi + 1] - x[i_hi])
    return right - left


def fedorov_ratio(inten: JointIntensity, windows: tuple, spacing: Optional[float]) -> float:
    """Width of the signal singles peak over the conditional peak width.

    ``windows`` are the (signal, idler) slit windows of :func:`coincidence_scan`,
    whose idler slit parks on :func:`idler_peak_center`. When the singles scan
    splits into separate peaks above half height and the run has a mode
    ``spacing``, both widths are read within half of it from the coincidence
    peak, so they are the widths of that one mode. With zero-width slits on a
    double-Gaussian amplitude this ratio equals the Schmidt number.
    """
    center = idler_peak_center(inten)
    singles = singles_scan(inten, windows[0])
    coinc = coincidence_scan(inten, center, *windows)
    window = None
    if spacing is not None and _splits_at_half_max(singles.values):
        half = spacing / 2.0
        peak = coinc.x[np.argmax(coinc.values)]
        window = (peak - half, peak + half)
    return fwhm_of(singles, window) / fwhm_of(coinc, window)


# marginal values within this relative distance of the maximum tie, and so
# do the |k| of mirror nodes, which a grid centred on zero holds to rounding
PEAK_TIE_RTOL = 1e-12


def idler_peak_center(inten: JointIntensity) -> float:
    """Default idler slit center: the node of the idler marginal's maximum.

    Nodes within a relative PEAK_TIE_RTOL of the maximum tie, since their
    order is rounding noise. Ties go to the smaller |k|, then to the
    negative k, which is the idler side of the ``+`` ring.
    """
    ki, mi = inten.grid_i.points(), inten.swapped.marginal
    top = ki[mi >= (1.0 - PEAK_TIE_RTOL) * mi.max()]
    return float(top[np.abs(top) <= (1.0 + PEAK_TIE_RTOL) * np.abs(top).min()].min())


# ---------------------------------------------------------------------------
# finite filter bandwidth
# ---------------------------------------------------------------------------

# spectral samples across the filter passband in :func:`wavelength_average`,
# spread uniformly over +-FILTER_SPAN_FWHM filter FWHMs
FILTER_SAMPLES = 21
FILTER_SPAN_FWHM = 1.5


def ring_wavevector(lambda_signal_um: float, config: PhaseMatchConfig) -> float:
    """Exact transverse ring wavevector (1/um) at a given signal wavelength.

    Energy conservation fixes the idler wavelength; equal-and-opposite
    transverse wavevectors plus longitudinal momentum conservation give
    K_ring^2 = k_i^2 - ((k_p^2 + k_i^2 - k_s^2) / (2 k_p))^2, with both
    downconverted indices from :meth:`PhaseMatchConfig.downconverted_index`.
    """
    lam_p = config.pump_wavelength_um
    if lambda_signal_um <= lam_p:
        raise ValueError(
            f"signal wavelength {lambda_signal_um} um must exceed the pump's {lam_p} um"
        )
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lambda_signal_um)
    n = config.downconverted_index
    k_s = 2.0 * math.pi * n(lambda_signal_um) / lambda_signal_um
    k_i = 2.0 * math.pi * n(lam_i) / lam_i
    k_p = config.pump_wavevector
    z_i = (k_p * k_p + k_i * k_i - k_s * k_s) / (2.0 * k_p)
    radicand = k_i * k_i - z_i * z_i
    if radicand < 0:
        raise ValueError(
            f"no transverse phase match at signal wavelength {lambda_signal_um:.4f} um "
            f"(radicand {radicand:.3e})"
        )
    return math.sqrt(radicand)


def effective_offset(lambda_signal_um: float, offset: float,
                     config: PhaseMatchConfig) -> float:
    """Apparent difference-coordinate offset for an off-degenerate signal photon.

    ``offset`` is the run's offset at the degenerate wavelength. Detectors
    are parameterized in degenerate-wavelength wavevector units, so a photon
    at lambda_s appears at its true angle times 2 pi / lambda_deg: the offset
    picks up the factor (lambda_s / lambda_deg) and the ring's own dispersion
    enters as a ratio anchored at ``offset``. A zero offset has no ring to
    move and stays zero.
    """
    if offset == 0.0:
        return 0.0
    lam_deg = config.signal_wavelength_um
    ratio = ring_wavevector(lambda_signal_um, config) / ring_wavevector(lam_deg, config)
    return offset * (lambda_signal_um / lam_deg) * ratio


def wavelength_average(config: PhaseMatchConfig, geom: DetectionGeometry, params: MultiPeakParams,
                       grid: WavevectorGrid) -> JointIntensity:
    """Joint intensity of a multi-peak pump averaged over the filter passband.

    Each spectral sample is the normalized intensity of
    :func:`~spdc_modes.kernel.build_multipeak` of ``params`` with its offset
    replaced by the sample's :func:`effective_offset`. The passband is
    Gaussian, sampled at FILTER_SAMPLES wavelengths uniformly over
    +-FILTER_SPAN_FWHM * FWHM, and the samples are weight-averaged
    (incoherent sum); a passband that reaches the pump wavelength, where no
    signal photon can be, is refused. The coverage warnings are against the
    union of the samples' supports. No kernel is built: the average is
    :meth:`~spdc_modes.kernel.JointIntensity.averaged` of the pump comb and
    the samples' matching factors.
    """
    sums, delta = sum_difference_nodes(grid)
    lam_c = geom.central_wavelength_nm * 1e-3
    fwhm = geom.filter_fwhm_nm * 1e-3
    sigma = fwhm / GAUSSIAN_FWHM_FACTOR
    lams = np.linspace(lam_c - FILTER_SPAN_FWHM * fwhm, lam_c + FILTER_SPAN_FWHM * fwhm,
                       FILTER_SAMPLES)
    if lams[0] <= config.pump_wavelength_um:
        raise ValueError(
            f"the filter passband starts at {lams[0] * 1e3:.6g} nm, not above the pump's "
            f"{config.pump_wavelength_um * 1e3:.6g} nm; narrow detection.filter_fwhm_nm or "
            "raise detection.central_wavelength_nm")
    weights = np.exp(-((lams - lam_c) ** 2) / (2.0 * sigma * sigma))
    weights /= weights.sum()

    samples = [dataclasses.replace(
        params, noncollinear_offset=effective_offset(lam, params.noncollinear_offset, config))
        for lam in lams]
    check_grids(samples, grid)

    matches = np.array([p.matching_factor(delta) for p in samples])
    return JointIntensity.averaged(grid, params.pump_factor(sums), matches, weights)


# ---------------------------------------------------------------------------
# mode crosstalk
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CrosstalkMatrix:
    """Pairwise intensity-overlap contrast between detection modes.

    ``values`` may underflow to zero for far-separated modes;
    ``log_values`` (natural log) stays exact arbitrarily far below that.
    """

    values: np.ndarray
    log_values: np.ndarray

    def log10(self) -> np.ndarray:
        return self.log_values / math.log(10.0)


# rows of products that crosstalk_matrix reduces in one logsumexp call
CROSSTALK_ROWS = 8


def gaussian_mode_log_intensities(centers: Sequence[float], scale: float,
                                  grid: WavevectorGrid) -> np.ndarray:
    """Natural-log intensity profiles of unit-norm Gaussian modes.

    One row per center; amplitude scale follows the fundamental
    Hermite-Gauss convention exp(-(k-c)^2/(2 scale^2)).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    k = grid.points()[None, :]
    c = np.asarray(centers, dtype=float)[:, None]
    return -((k - c) ** 2) / (scale * scale) - 0.5 * math.log(math.pi * scale * scale)


def crosstalk_matrix(log_modes: np.ndarray, grid: WavevectorGrid) -> CrosstalkMatrix:
    """Normalized squared intensity overlaps X_mn between mode profiles.

    Each row of ``log_modes`` is a natural-log intensity profile I_m, and
    X_mn = (integral I_m I_n)^2 / (integral I_m^2 integral I_n^2), so X_mm = 1
    and X is symmetric. The whole computation runs in the log domain, which
    keeps vanishing overlaps meaningful far below float underflow. The
    products I_m I_n are summed CROSSTALK_ROWS rows at a time, so the work
    arrays are that many rows, not n, and each row's sum is its own: the
    result does not depend on the block size.
    """
    log_modes = np.asarray(log_modes)
    if log_modes.ndim != 2:
        raise ValueError(f"modes must be 2D (n_modes, n_k), got shape {log_modes.shape}")
    n, nk = log_modes.shape
    if grid.n_points != nk:
        raise ValueError(f"grid has {grid.n_points} points but modes have {nk}")
    w = np.full(nk, grid.spacing)
    w[0] = w[-1] = grid.spacing / 2.0
    logw = np.log(w)
    log_cross = np.empty((n, n))
    for m in range(n):
        for start in range(m, n, CROSSTALK_ROWS):
            rows = slice(start, start + CROSSTALK_ROWS)
            log_cross[m, rows] = scipy.special.logsumexp(log_modes[m] + log_modes[rows] + logw,
                                                         axis=1)
        log_cross[m:, m] = log_cross[m, m:]
    diag = np.diag(log_cross)
    log_x = 2.0 * log_cross - diag[:, None] - diag[None, :]
    with np.errstate(under="ignore"):
        values = np.exp(log_x)
    return CrosstalkMatrix(values, log_x)
