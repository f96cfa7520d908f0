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
from scipy.special import logsumexp

from .kernel import (
    JointIntensity,
    MultiPeakParams,
    check_grids,
    diagonal_sums,
    marginal_intensity,
    sum_difference_nodes,
)
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

    def slit_acceptance(self, which: str = "signal") -> float:
        """Wavevector window (1/um) admitted by one slit."""
        if which == "signal":
            w = self.slit_width_signal_mm
        elif which == "idler":
            w = self.slit_width_idler_mm
        else:
            raise ValueError(f"which must be 'signal' or 'idler', got {which!r}")
        return self.position_to_wavevector(w)


@dataclass(frozen=True, eq=False)
class ScanSpectrum:
    """Count rate versus slit-center wavevector."""

    positions: np.ndarray
    rates: np.ndarray


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


def singles_scan(inten: JointIntensity, geom: DetectionGeometry,
                 which: str = "signal", zero_width: bool = False) -> ScanSpectrum:
    """Single-detector rate at every grid node: partner integrated out, slit window applied."""
    k, marginal = marginal_intensity(inten, which)
    if zero_width:
        rates = marginal
    else:
        rates = _box_integral(k, marginal, k, geom.slit_acceptance(which))
    return ScanSpectrum(k, rates)


def coincidence_scan(inten: JointIntensity, geom: DetectionGeometry,
                     fixed_center: float, zero_width: bool = False) -> ScanSpectrum:
    """Two-detector rate at every signal-grid node, idler slit parked at ``fixed_center``.

    Only the idler columns the slit reaches are read, each off the two
    profiles of ``inten``.
    """
    kf = inten.grid_i.points()
    if not (kf[0] <= fixed_center <= kf[-1]):
        raise ValueError(
            f"fixed idler slit center {fixed_center:.4g} lies outside the grid "
            f"[{kf[0]:.4g}, {kf[-1]:.4g}]"
        )

    ks = inten.grid_s.points()
    if zero_width:
        # exact slice: interpolate along the fixed axis
        j = np.searchsorted(kf, fixed_center)
        j = min(max(j, 1), kf.size - 1)
        t = (fixed_center - kf[j - 1]) / (kf[j] - kf[j - 1])
        return ScanSpectrum(ks, inten.weighted_columns(j - 1, np.array([1.0 - t, t])))

    # the slit integral is the cumulative trapezoid along the idler axis,
    # interpolated linearly at the slit's fractional column edges lo and hi:
    # segment k counts in full between them, and in part at either end
    width = geom.slit_acceptance("idler")
    columns = np.arange(kf.size, dtype=float)
    j_lo, t_lo = _fractional_column(np.interp(fixed_center - width / 2.0, kf, columns), kf.size)
    j_hi, t_hi = _fractional_column(np.interp(fixed_center + width / 2.0, kf, columns), kf.size)
    k = np.arange(j_hi - j_lo + 1)
    fraction = (k < j_hi - j_lo) + t_hi * (k == j_hi - j_lo) - t_lo * (k == 0)
    half = 0.5 * fraction * np.diff(kf[j_lo:j_hi + 2])
    # segment k weighs its two end columns k and k + 1 by half its share
    weights = np.convolve(half, [1.0, 1.0])
    conditional = inten.weighted_columns(j_lo, weights)
    return ScanSpectrum(ks, _box_integral(ks, conditional, ks, geom.slit_acceptance("signal")))


def _fractional_column(frac_index: float, n: int) -> tuple:
    """(j, t) with frac_index = j + t and j clamped to a segment start, 0..n - 2."""
    j = min(max(int(math.floor(frac_index)), 0), n - 2)
    return j, frac_index - j


# ---------------------------------------------------------------------------
# peak and width extraction
# ---------------------------------------------------------------------------

def _parabolic_vertex(x: np.ndarray, y: np.ndarray, i: int) -> tuple:
    """Vertex of the parabola through points i-1, i, i+1 (uniform grids only)."""
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom >= 0:
        return x[i], y[i]
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    h = x[i + 1] - x[i]
    return x[i] + shift * h, y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift


def find_peaks(spectrum: ScanSpectrum, min_height_frac: float = 0.2) -> tuple:
    """(positions, heights) of local maxima, parabolic sub-grid refinement.

    Keeps maxima at least ``min_height_frac`` of the global maximum; plateau
    points count once at their left edge.
    """
    x, y = spectrum.positions, spectrum.rates
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


def fwhm_of(spectrum: ScanSpectrum, window: Optional[tuple] = None) -> float:
    """Full width at half maximum of a single-peaked scan.

    ``window=(lo, hi)`` restricts the analysis first. The half-max crossings
    are walked with linear interpolation, and the above-half region must be
    contiguous.
    """
    x, y = spectrum.positions, spectrum.rates
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


def fedorov_ratio(inten: JointIntensity, geom: DetectionGeometry, centers: Sequence[float],
                  zero_width: bool = False) -> float:
    """Width of the signal singles peak over the conditional peak width.

    The partner slit parks on :func:`idler_peak_center`. When the singles
    scan splits into separate peaks above half height and the run has two
    or more distinct signal-mode ``centers``, both widths are read within
    half the smallest center spacing of the coincidence peak, so they are
    the widths of that one mode. With zero-width slits on a double-Gaussian
    amplitude this ratio equals the Schmidt number.
    """
    center = idler_peak_center(inten)
    singles = singles_scan(inten, geom, "signal", zero_width=zero_width)
    coinc = coincidence_scan(inten, geom, center, zero_width=zero_width)
    spacings = np.diff(np.unique(centers))
    window = None
    if spacings.size and _splits_at_half_max(singles.rates):
        half = spacings.min() / 2.0
        peak = coinc.positions[np.argmax(coinc.rates)]
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
    ki, mi = marginal_intensity(inten, "idler")
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
    (incoherent sum). The coverage warnings are against the union of the
    samples' supports.

    No kernel is built. On a grid of spacing h and its mirror a sample's
    intensity is P^2[i + j] M^2[i - j] / n: the pump comb P takes
    one value per sum ks + ki, the sample's matching factor M one per
    difference ks - ki, and the norm n = h^2 sum_d M^2[d] D[d], where D is
    the :func:`~spdc_modes.kernel.diagonal_sums` of P^2. The average is then
    P^2[i + j] g[i - j] with the 1D g = sum of (weight / n) M^2, and the
    result holds the pair (P^2, g).
    """
    sums, delta = sum_difference_nodes(grid)
    lam_c = geom.central_wavelength_nm * 1e-3
    fwhm = geom.filter_fwhm_nm * 1e-3
    sigma = fwhm / GAUSSIAN_FWHM_FACTOR
    lams = np.linspace(lam_c - FILTER_SPAN_FWHM * fwhm, lam_c + FILTER_SPAN_FWHM * fwhm,
                       FILTER_SAMPLES)
    weights = np.exp(-((lams - lam_c) ** 2) / (2.0 * sigma * sigma))
    weights /= weights.sum()

    samples = [dataclasses.replace(
        params, noncollinear_offset=effective_offset(lam, params.noncollinear_offset, config))
        for lam in lams]
    warns = check_grids(samples, grid)

    pump = params.pump_factor(sums)
    match = np.array([p.matching_factor(delta) for p in samples])
    if not (np.all(np.isfinite(pump)) and np.all(np.isfinite(match))):
        raise ValueError("amplitude contains non-finite entries")
    pump2 = pump * pump
    match2 = match * match
    diagonal = diagonal_sums(pump2, grid.n_points)

    area = grid.spacing * grid.spacing
    norms = (match2 @ diagonal) * area
    if np.any(norms == 0.0):
        raise ValueError("amplitude is identically zero")
    g = (weights / norms) @ match2
    # renormalize like a kernel intensity: unit integral
    g /= (g @ diagonal) * area
    return JointIntensity(grid, pump2, g, tuple(warns))


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


def crosstalk_matrix(modes: np.ndarray, grid: WavevectorGrid,
                     log_input: bool = False) -> CrosstalkMatrix:
    """Normalized squared overlaps X_mn between mode profiles.

    X_mn = |<u_m|u_n>|^2 / (<u_m|u_m> <u_n|u_n>) with <u|v> the integral of
    u* v, so X_mm = 1 and X is symmetric. Rows of intensities give the
    intensity overlap (integral I_m I_n)^2 / (integral I_m^2 integral I_n^2);
    rows of (possibly complex) amplitudes give the amplitude overlap.
    ``log_input`` treats rows as natural-log intensities and works entirely
    in the log domain, which keeps vanishing overlaps meaningful far below
    float underflow.
    """
    modes = np.asarray(modes)
    if modes.ndim != 2:
        raise ValueError(f"modes must be 2D (n_modes, n_k), got shape {modes.shape}")
    n, nk = modes.shape
    if grid.n_points != nk:
        raise ValueError(f"grid has {grid.n_points} points but modes have {nk}")
    w = np.full(nk, grid.spacing)
    w[0] = w[-1] = grid.spacing / 2.0

    if log_input:
        logw = np.log(w)
        log_cross = np.empty((n, n))
        # one row at a time: an (n, n, nk) broadcast costs n times the memory
        for m in range(n):
            row = logsumexp(modes[m] + modes[m:] + logw, axis=1)
            log_cross[m, m:] = log_cross[m:, m] = row
        diag = np.diag(log_cross)
        log_x = 2.0 * log_cross - diag[:, None] - diag[None, :]
        with np.errstate(under="ignore"):
            values = np.exp(log_x)
        return CrosstalkMatrix(values, log_x)

    gram = (modes.conj() * w) @ modes.T
    diag = np.real(np.diag(gram))
    if np.any(diag <= 0):
        raise ValueError("every mode needs positive norm")
    x = np.abs(gram) ** 2 / (diag[:, None] * diag[None, :])
    with np.errstate(divide="ignore"):
        log_x = np.log(x, out=np.full_like(x, -np.inf), where=x > 0)
    return CrosstalkMatrix(x, log_x)
