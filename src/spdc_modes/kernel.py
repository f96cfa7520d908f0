"""Joint two-photon amplitudes on transverse-wavevector grids.

Every model here has the form F(ks, ki) = P(ks + ki) M(ks - ki): a pump
profile P at the sums and a phase-matching profile M at the differences.
On grids of one spacing both are 1D arrays on the nodes of
:func:`sum_difference_nodes`, and every joint quantity is read off that
pair. :class:`TpaKernel` holds F itself, sampled with ks along axis 0 and
ki along axis 1, for the Schmidt decomposition and the kernel table;
:class:`JointIntensity` holds the pair |P|^2, |M|^2 for the slit scans,
which never form the joint array. Builders cover the plain
double-Gaussian case, the structured multi-peak pump, and a pump spectrum
sampled on :func:`sum_coordinate_grid` combined with a gaussian or sinc
phase-matching profile. The amplitude is real (float64) unless the pump
spectrum is complex: :func:`build_from_pump` builds a complex128 kernel
from a complex sampled spectrum and a float64 one from a real spectrum.

Normalization is always the Riemann quadrature
sum |F|^2 dks dki = 1 on the kernel's own grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .optics import PhaseMatchConfig, PumpWidths, WavevectorGrid

# grids must resolve the narrowest feature; refuse anything coarser
MAX_STEP_FRACTION = 0.25
# grids must cover the amplitude support out to this many widths
MIN_COVER_SIGMAS = 4.0

BRANCHES = ("+", "both")


@dataclass(frozen=True, eq=False)
class TpaKernel:
    """Sampled joint amplitude with its grids and provenance warnings."""

    grid_s: WavevectorGrid
    grid_i: WavevectorGrid
    amplitude: np.ndarray
    warnings: tuple = ()

    def __post_init__(self):
        expected = (self.grid_s.n_points, self.grid_i.n_points)
        if self.amplitude.shape != expected:
            raise ValueError(
                f"amplitude shape {self.amplitude.shape} does not match grids {expected}"
            )

    @classmethod
    def from_profiles(cls, grid_s: WavevectorGrid, grid_i: WavevectorGrid,
                      at_sums: np.ndarray, at_differences: np.ndarray,
                      warnings: Sequence[str] = ()) -> "TpaKernel":
        """The normalized kernel P[i + j] M[i - j + n_i - 1] of a profile pair.

        A real pair gives a float64 kernel, a complex one complex128.
        """
        pump, match = _unit_profiles(at_sums, at_differences, grid_s, grid_i)
        return cls(grid_s, grid_i, sum_difference_product(pump, match, grid_i.n_points),
                   tuple(warnings))

    def norm(self) -> float:
        amp = self.amplitude
        return math.sqrt(np.vdot(amp, amp).real * self.grid_s.spacing * self.grid_i.spacing)


@dataclass(frozen=True, eq=False)
class JointIntensity:
    """|F|^2 of a kernel F = P M, held as its two 1D profiles.

    ``at_sums`` is |P|^2 and ``at_differences`` |M|^2, both on the nodes
    of :func:`sum_difference_nodes`, so the intensity at joint node (i, j)
    is at_sums[i + j] * at_differences[i - j + n_i - 1] and integrates to 1.
    """

    grid_s: WavevectorGrid
    grid_i: WavevectorGrid
    at_sums: np.ndarray
    at_differences: np.ndarray
    warnings: tuple = ()

    @classmethod
    def from_profiles(cls, grid_s: WavevectorGrid, grid_i: WavevectorGrid,
                      at_sums: np.ndarray, at_differences: np.ndarray,
                      warnings: Sequence[str] = ()) -> "JointIntensity":
        """The intensity of :meth:`TpaKernel.from_profiles` of the same pair."""
        pump, match = _unit_profiles(at_sums, at_differences, grid_s, grid_i)
        return cls(grid_s, grid_i, np.abs(pump) ** 2, np.abs(match) ** 2, tuple(warnings))

    def weighted_columns(self, start: int, weights: np.ndarray) -> np.ndarray:
        """sum_c weights[c] |F|^2[:, start + c], one value per signal node.

        The columns are read off the two profiles through sliding windows,
        so no block of the joint array is formed.
        """
        n_s, n_i, width = self.grid_s.n_points, self.grid_i.n_points, len(weights)
        pump = sliding_window_view(self.at_sums[start:start + n_s + width - 1], width)
        match = sliding_window_view(
            self.at_differences[n_i - start - width:n_i - start + n_s - 1], width)[:, ::-1]
        return np.einsum("ic,ic,c->i", pump, match, weights)


def diagonal_sums(at_sums: np.ndarray, n_s: int, n_i: int) -> np.ndarray:
    """D[m]: the sum of at_sums[i + j] over the joint nodes on the diagonal
    i - j = m - (n_i - 1), for every difference node m.

    The diagonal i - j = e runs over i + j = |e|, |e| + 2, ..., hi, and
    prefix[m + 2] sums at_sums over the indices <= m of m's parity.
    """
    prefix = np.zeros(at_sums.size + 2)
    prefix[2::2] = np.cumsum(at_sums[0::2])
    prefix[3::2] = np.cumsum(at_sums[1::2])
    e = np.arange(at_sums.size) - (n_i - 1)
    hi = np.minimum(2 * (n_i - 1) + e, 2 * (n_s - 1) - e)
    return prefix[hi + 2] - prefix[np.abs(e)]


def _unit_profiles(at_sums: np.ndarray, at_differences: np.ndarray,
                   grid_s: WavevectorGrid, grid_i: WavevectorGrid) -> tuple:
    """(P, M) rescaled so that P[i + j] M[i - j + n_i - 1] has unit norm.

    The squared norm is h^2 sum_m |M[m]|^2 D[m], with D the
    :func:`diagonal_sums` of |P|^2. Each profile is first scaled to a unit
    peak, so no square overflows and every product stays finite.
    """
    pump = np.asarray(at_sums)
    match = np.asarray(at_differences)
    if not (np.all(np.isfinite(pump)) and np.all(np.isfinite(match))):
        raise ValueError("amplitude contains non-finite entries")
    peaks = np.abs(pump).max(), np.abs(match).max()
    if min(peaks) == 0.0:
        raise ValueError("amplitude is identically zero")
    # numpy divides complex by real as a multiply by the reciprocal, so this
    # form gives a real profile the same bits as its complex promotion
    pump = pump * (1.0 / peaks[0])
    match = match * (1.0 / peaks[1])
    norm2 = (np.abs(match) ** 2 @ diagonal_sums(np.abs(pump) ** 2, grid_s.n_points,
                                                 grid_i.n_points)
             * grid_s.spacing * grid_i.spacing)
    if norm2 == 0.0:
        raise ValueError("amplitude is identically zero")
    return pump, match * (1.0 / math.sqrt(norm2))


def _check_resolution(grid: WavevectorGrid, narrowest: float, label: str) -> None:
    if grid.spacing > MAX_STEP_FRACTION * narrowest:
        raise ValueError(
            f"{label} grid step {grid.spacing:.4g} cannot resolve the narrowest "
            f"width {narrowest:.4g}; need step <= {MAX_STEP_FRACTION * narrowest:.4g} "
            f"(>= {np.ceil((grid.k_max - grid.k_min) / (MAX_STEP_FRACTION * narrowest)) + 1:.6g} points)"
        )


def _coverage_warnings(grid_s, grid_i, cover_s, cover_i) -> list:
    """One warning per grid that does not span its cover (the amplitude support)."""
    return [f"{label} grid [{grid.k_min:.4g}, {grid.k_max:.4g}] clips the amplitude "
            f"support [{cover.k_min:.4g}, {cover.k_max:.4g}]; tails are truncated"
            for label, grid, cover in (("signal", grid_s, cover_s), ("idler", grid_i, cover_i))
            if not grid.covers(cover.k_min, cover.k_max)]


@dataclass(frozen=True)
class MultiPeakParams:
    """Structured pump made of equally spaced Gaussian peaks in the far field.

    ``amplitudes`` holds each peak's field amplitude, in :meth:`mode_offsets`
    order; ``peak_spacing`` is the far-field distance between adjacent
    signal peaks (1/um). ``branch`` picks the emission rings: ``"+"`` holds
    the ring at +offset, ``"both"`` adds its mirror at -offset.
    """

    amplitudes: Tuple[float, ...]
    peak_spacing: float
    noncollinear_offset: float
    widths: PumpWidths
    branch: str = "+"

    def __post_init__(self):
        if not self.amplitudes:
            raise ValueError("need at least one peak")
        if self.n_peaks > 1 and self.peak_spacing <= 0:
            raise ValueError(f"peak spacing must be positive, got {self.peak_spacing}")
        if self.noncollinear_offset < 0:
            raise ValueError("offset must be >= 0; the branch sign comes from branch")
        if self.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {self.branch!r}")

    @property
    def n_peaks(self) -> int:
        return len(self.amplitudes)

    def mode_offsets(self) -> np.ndarray:
        """Far-field signal-mode centers, symmetric around 0, spaced by peak_spacing."""
        m = np.arange(self.n_peaks)
        return (self.n_peaks - 1 - 2 * m) * self.peak_spacing / 2.0

    def signal_centers(self) -> np.ndarray:
        """Signal-mode centers: the offsets shifted by half the ring offset, then,
        for ``branch='both'`` off a nonzero offset, the same centers on the
        mirror ring (at zero offset the two rings coincide)."""
        centers = self.mode_offsets() + self.noncollinear_offset / 2.0
        if self.branch == "both" and self.noncollinear_offset > 0:
            centers = np.concatenate([centers, centers - self.noncollinear_offset])
        return centers

    def pump_centers(self) -> np.ndarray:
        """Sum-coordinate (ks + ki) centers of the pump peaks: twice the offsets."""
        return 2.0 * self.mode_offsets()

    def pump_factor(self, total: np.ndarray) -> np.ndarray:
        """Pump comb at sum coordinates ks + ki: a Gaussian at each of
        :meth:`pump_centers`, scaled by its amplitude."""
        pump = np.zeros_like(total)
        for a, c in zip(self.amplitudes, self.pump_centers()):
            pump += a * np.exp(-((total - c) ** 2) / (2.0 * self.widths.sigma_pump ** 2))
        return pump

    def matching_factor(self, delta: np.ndarray) -> np.ndarray:
        """Gaussian phase matching at differences ks - ki, centred at the offset.

        ``branch='both'`` adds the mirror Gaussian at minus the offset.
        """
        offset, sigma = self.noncollinear_offset, self.widths.sigma_match
        if self.branch == "+":
            return np.exp(-((delta - offset) ** 2) / (2.0 * sigma ** 2))
        return (np.exp(-((delta - offset) ** 2) / (2.0 * sigma ** 2))
                + np.exp(-((delta + offset) ** 2) / (2.0 * sigma ** 2)))


def default_grids(params: MultiPeakParams, n_points: int, span_sigmas: float) -> tuple:
    """(signal, idler) grids centered on the emission branch.

    Spans cover every pump peak plus ``span_sigmas`` of the widest Gaussian
    on each side. ``branch='+'`` centers the signal grid at +offset/2 and
    the idler grid at -offset/2; ``branch='both'`` centers both grids at
    zero and widens the span to reach both rings.
    """
    extent = float(np.max(np.abs(params.mode_offsets()))) if params.n_peaks > 1 else 0.0
    half = extent + span_sigmas * params.widths.widest
    k0 = params.noncollinear_offset / 2.0
    if params.branch == "both":
        half += k0
        return (WavevectorGrid.centered(0.0, half, n_points),
                WavevectorGrid.centered(0.0, half, n_points))
    return (WavevectorGrid.centered(k0, half, n_points),
            WavevectorGrid.centered(-k0, half, n_points))


def multipeak_profiles(params: MultiPeakParams, grid_s: WavevectorGrid,
                       grid_i: WavevectorGrid) -> tuple:
    """(pump factor, matching factor, build warnings) of a multi-peak pump.

    Pump factor: sum of Gaussians in (ks + ki) at :meth:`pump_centers`.
    Matching factor: Gaussian in (ks - ki) centered at the offset on the
    chosen branch (or the sum of both branches). Both are sampled at
    :func:`sum_difference_nodes`, unnormalized; the grids are checked first.
    """
    warns = check_grids([params], grid_s, grid_i)
    sums, delta = sum_difference_nodes(grid_s, grid_i)
    return params.pump_factor(sums), params.matching_factor(delta), warns


def build_multipeak(params: MultiPeakParams, grid_s: WavevectorGrid,
                    grid_i: Optional[WavevectorGrid] = None) -> TpaKernel:
    """Joint amplitude of a multi-peak pump with Gaussian phase matching:
    the kernel of :func:`multipeak_profiles`."""
    if grid_i is None:
        grid_i = grid_s
    return TpaKernel.from_profiles(grid_s, grid_i, *multipeak_profiles(params, grid_s, grid_i))


def multipeak_intensity(params: MultiPeakParams, grid_s: WavevectorGrid,
                        grid_i: Optional[WavevectorGrid] = None) -> JointIntensity:
    """|F|^2 of :func:`build_multipeak`, with no joint array formed."""
    if grid_i is None:
        grid_i = grid_s
    return JointIntensity.from_profiles(grid_s, grid_i,
                                        *multipeak_profiles(params, grid_s, grid_i))


def build_double_gaussian(widths: PumpWidths, grid_s: WavevectorGrid,
                          grid_i: Optional[WavevectorGrid] = None) -> TpaKernel:
    """Gaussian-pump, gaussian-phase-matching joint amplitude around k = 0.

    F(ks, ki) = exp(-(ks+ki)^2 / (2 sigma_pump^2))
              * exp(-(ks-ki)^2 / (2 sigma_match^2)), normalized: the
    single-peak, zero-offset case of :func:`build_multipeak`.
    """
    return build_multipeak(MultiPeakParams((1.0,), 0.0, 0.0, widths), grid_s, grid_i)


def check_grids(samples: Sequence[MultiPeakParams], grid_s: WavevectorGrid,
                grid_i: WavevectorGrid) -> list:
    """Build warnings of multi-peak pumps on the joint grids.

    Raises ValueError when a grid cannot resolve the narrowest width. The
    samples differ only in their offset; each grid is checked against the
    union of the samples' amplitude supports.
    """
    params = samples[0]
    widths = params.widths
    _check_resolution(grid_s, widths.narrowest, "signal")
    _check_resolution(grid_i, widths.narrowest, "idler")

    warns = []
    if params.n_peaks > 1 and params.peak_spacing <= 4.0 * widths.widest:
        warns.append(
            f"peak spacing {params.peak_spacing:.4g} is within 4 widths "
            f"({4.0 * widths.widest:.4g}) of the peaks; modes overlap and the "
            "per-peak factorization is invalid"
        )

    covers = [default_grids(p, grid_s.n_points, MIN_COVER_SIGMAS) for p in samples]
    warns += _coverage_warnings(grid_s, grid_i, *(
        WavevectorGrid(min(c.k_min for c in axis), max(c.k_max for c in axis), grid_s.n_points)
        for axis in zip(*covers)))
    return warns


# ---------------------------------------------------------------------------
# arbitrary sampled pump
# ---------------------------------------------------------------------------

def sum_coordinate_grid(grid_s: WavevectorGrid, grid_i: WavevectorGrid) -> WavevectorGrid:
    """Grid of all ks + ki sums, aligned with the joint grids' nodes.

    For equal spacings the sums land exactly on this grid's nodes, so a
    profile sampled here is read at ks + ki without interpolation error.
    """
    if not math.isclose(grid_s.spacing, grid_i.spacing, rel_tol=1e-12):
        raise ValueError(
            f"signal and idler spacings differ ({grid_s.spacing:.6g} vs "
            f"{grid_i.spacing:.6g}); the sum coordinate has no common grid"
        )
    return WavevectorGrid(grid_s.k_min + grid_i.k_min,
                          grid_s.k_max + grid_i.k_max,
                          grid_s.n_points + grid_i.n_points - 1)


def sum_difference_nodes(grid_s: WavevectorGrid, grid_i: WavevectorGrid) -> tuple:
    """The (ks + ki, ks - ki) values that :func:`sum_difference_product` reads:
    node m of :func:`sum_coordinate_grid` is the sum at i + j = m and, shifted
    by the idler's k_min + k_max, the difference at i - j = m - (n_i - 1)."""
    sums = sum_coordinate_grid(grid_s, grid_i).points()
    return sums, sums - (grid_i.k_min + grid_i.k_max)


def sum_difference_product(at_sums: np.ndarray, at_differences: np.ndarray,
                           n_i: int) -> np.ndarray:
    """Joint array [i, j] -> at_sums[i + j] * at_differences[i - j + n_i - 1],
    with both sampled at :func:`sum_difference_nodes`."""
    return (sliding_window_view(at_sums, n_i)
            * sliding_window_view(at_differences, n_i)[:, ::-1])


def pump_spectrum_from_field(x_um: np.ndarray, field: np.ndarray,
                             k_grid: WavevectorGrid) -> np.ndarray:
    """Fourier transform of a crystal-plane field at ``k_grid``'s nodes.

    Direct Riemann sum of E(x) exp(-i k x) dx (complex128); slow but free
    of FFT gridding constraints, fine for the ~1e3-point profiles this
    package deals in.
    """
    x = np.asarray(x_um, dtype=float)
    e = np.asarray(field, dtype=complex)
    if x.ndim != 1 or x.shape != e.shape:
        raise ValueError("x_um and field must be matching 1D arrays")
    dx = np.diff(x)
    if not np.all(dx > 0):
        raise ValueError("x_um must be strictly increasing")
    phase = np.exp(-1j * np.outer(k_grid.points(), x))
    # trapezoid weights keep the endpoints from being double-counted
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (dx[:-1] + dx[1:])
    w[0] = 0.5 * dx[0]
    w[-1] = 0.5 * dx[-1]
    return phase @ (e * w)


def build_from_pump(spectrum: np.ndarray, params: MultiPeakParams, config: PhaseMatchConfig,
                    grid_s: WavevectorGrid, grid_i: Optional[WavevectorGrid] = None,
                    phasematch_model: str = "gaussian") -> TpaKernel:
    """Joint amplitude from a sampled pump spectrum and a matching profile.

    ``spectrum`` holds the pump at the nodes of ``sum_coordinate_grid(grid_s,
    grid_i)``. The offset K, the matching width sigma_match and the branch
    are the run's resolved ones, read from ``params``; ``config`` supplies
    only the crystal constants of the sinc profile. ``phasematch_model``
    picks the profile at the differences ks - ki:

    * ``"gaussian"``: exp(-(delta - K)^2 / (2 sigma_match^2)), plus its
      mirror at -K for ``branch='both'``,
    * ``"sinc"``: the longitudinal mismatch profile itself,
      sinc[(L/4) (delta^2 - K^2) / (2 k_s)] (noncollinear; delta >= 0 only
      for ``branch='+'``) or sinc[(L/4) delta^2 / (2 k_p)] (collinear; a
      non-zero resolved offset is refused, as this profile peaks at 0).
    """
    if grid_i is None:
        grid_i = grid_s
    if phasematch_model not in ("gaussian", "sinc"):
        raise ValueError(f"unknown phase-matching model {phasematch_model!r}")
    offset = params.noncollinear_offset
    if phasematch_model == "sinc" and config.regime == "collinear" and offset != 0.0:
        raise ValueError(f"the collinear sinc profile is centred at ks - ki = 0 and cannot "
                         f"sit on the resolved offset {offset:.4g} 1/um")
    sums, delta = sum_difference_nodes(grid_s, grid_i)
    if np.shape(spectrum) != sums.shape:
        raise ValueError(f"pump spectrum has shape {np.shape(spectrum)}; need {sums.size} "
                         "samples at the nodes of sum_coordinate_grid(grid_s, grid_i)")

    if phasematch_model == "gaussian":
        match = params.matching_factor(delta)
    else:
        length = config.crystal_length_um
        if config.regime == "collinear":
            arg = (length / 4.0) * delta ** 2 / (2.0 * config.pump_wavevector)
        else:
            arg = (length / 4.0) * (delta ** 2 - offset ** 2) / (2.0 * config.signal_wavevector)
        match = np.sinc(arg / math.pi)
        if config.regime != "collinear" and params.branch == "+":
            match[delta < 0] = 0.0

    return TpaKernel.from_profiles(grid_s, grid_i, spectrum, match)


def marginal_intensity(inten: JointIntensity, which: str = "signal") -> tuple:
    """(k_points, intensity) of one photon with the partner integrated out.

    The signal marginal at node i is the band sum over the idler nodes j of
    at_sums[i + j] * at_differences[i - j + n_i - 1]; only pairs whose
    partner lies on its grid count, as on the joint array.
    """
    if which == "idler":
        # the transpose: ki - ks = -(ks - ki) reverses the difference nodes
        inten = JointIntensity(inten.grid_i, inten.grid_s, inten.at_sums,
                               inten.at_differences[::-1])
    elif which != "signal":
        raise ValueError(f"which must be 'signal' or 'idler', got {which!r}")
    band = inten.weighted_columns(0, np.ones(inten.grid_i.n_points))
    return inten.grid_s.points(), band * inten.grid_i.spacing
