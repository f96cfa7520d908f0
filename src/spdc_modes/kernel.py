"""Joint two-photon amplitudes on transverse-wavevector grids.

Every model here has the form F(ks, ki) = P(ks + ki) M(ks - ki): a pump
profile P at the sums and a phase-matching profile M at the differences.
On a signal grid and its mirror, the idler grid, both are 1D arrays on
the nodes of :func:`sum_difference_nodes`, and every joint quantity is
read off that pair. :class:`TpaKernel` holds F itself, with ks along axis
0 and ki along axis 1, for the Schmidt decomposition and the kernel table;
:class:`JointIntensity` holds the pair |P|^2, |M|^2 for the slit scans,
which never form the joint array. Builders cover the plain
double-Gaussian case, the structured multi-peak pump, and a pump spectrum
sampled on :func:`sum_coordinate_grid` combined with a gaussian or sinc
phase-matching profile. The amplitude is real (float64) unless the pump
spectrum is complex: :func:`build_from_pump` builds a complex128 kernel
from a complex sampled spectrum and a float64 one from a real spectrum.

Normalization is always the Riemann quadrature
sum |F|^2 dks dki = 1 on the kernel's own grid and its mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .optics import PhaseMatchConfig, PumpWidths, WavevectorGrid

# grids must resolve the narrowest feature; refuse anything coarser
MAX_STEP_FRACTION = 0.25
# grids must cover the amplitude support out to this many widths
MIN_COVER_SIGMAS = 4.0

BRANCHES = ("+", "both")


class MirroredIdler:
    """Base of the objects on one grid, ``grid_s``, whose mirror is the idler grid."""

    @property
    def grid_i(self) -> WavevectorGrid:
        return self.grid_s.mirrored()


@dataclass(frozen=True, eq=False)
class TpaKernel(MirroredIdler):
    """Sampled joint amplitude with its grid and provenance warnings."""

    grid_s: WavevectorGrid
    amplitude: np.ndarray
    warnings: tuple = ()

    def __post_init__(self):
        expected = (self.grid_s.n_points,) * 2
        if self.amplitude.shape != expected:
            raise ValueError(
                f"amplitude shape {self.amplitude.shape} does not match grids {expected}"
            )

    @classmethod
    def from_profiles(cls, grid: WavevectorGrid, at_sums: np.ndarray, at_differences: np.ndarray,
                      warnings: Sequence[str] = ()) -> "TpaKernel":
        """The normalized kernel P[i + j] M[i - j + n - 1] of a profile pair.

        A real pair gives a float64 kernel, a complex one complex128.
        """
        pump, match = _unit_profiles(at_sums, at_differences, grid)
        return cls(grid, sum_difference_product(pump, match, grid.n_points), tuple(warnings))

    def norm(self) -> float:
        amp = self.amplitude
        return math.sqrt(np.vdot(amp, amp).real * self.grid_s.spacing * self.grid_s.spacing)


@dataclass(frozen=True, eq=False)
class JointIntensity(MirroredIdler):
    """|F|^2 of a kernel F = P M, held as its two 1D profiles.

    ``at_sums`` is |P|^2 and ``at_differences`` |M|^2, both on the nodes
    of :func:`sum_difference_nodes`, so the intensity at joint node (i, j)
    is at_sums[i + j] * at_differences[i - j + n - 1] and integrates to 1.
    """

    grid_s: WavevectorGrid
    at_sums: np.ndarray
    at_differences: np.ndarray
    warnings: tuple = ()

    @classmethod
    def from_profiles(cls, grid: WavevectorGrid, at_sums: np.ndarray, at_differences: np.ndarray,
                      warnings: Sequence[str] = ()) -> "JointIntensity":
        """The intensity of :meth:`TpaKernel.from_profiles` of the same pair."""
        pump, match = _unit_profiles(at_sums, at_differences, grid)
        return cls(grid, np.abs(pump) ** 2, np.abs(match) ** 2, tuple(warnings))

    def weighted_columns(self, start: int, weights: np.ndarray) -> np.ndarray:
        """sum_c weights[c] |F|^2[:, start + c], one value per signal node.

        The columns are read off the two profiles through sliding windows,
        so no block of the joint array is formed.
        """
        n, width = self.grid_s.n_points, len(weights)
        pump = sliding_window_view(self.at_sums[start:start + n + width - 1], width)
        match = sliding_window_view(
            self.at_differences[n - start - width:2 * n - start - 1], width)[:, ::-1]
        return np.einsum("ic,ic,c->i", pump, match, weights)


def diagonal_sums(at_sums: np.ndarray, n: int) -> np.ndarray:
    """D[m]: the sum of at_sums[i + j] over the joint nodes on the diagonal
    i - j = m - (n - 1), for every difference node m of an n-point grid.

    The diagonal i - j = e runs over i + j = |e|, |e| + 2, ..., 2 (n - 1) - |e|,
    and prefix[m + 2] sums at_sums over the indices <= m of m's parity.
    """
    prefix = np.zeros(at_sums.size + 2)
    prefix[2::2] = np.cumsum(at_sums[0::2])
    prefix[3::2] = np.cumsum(at_sums[1::2])
    e = np.abs(np.arange(at_sums.size) - (n - 1))
    return prefix[2 * n - e] - prefix[e]


def _unit_profiles(at_sums: np.ndarray, at_differences: np.ndarray,
                   grid: WavevectorGrid) -> tuple:
    """(P, M) rescaled so that P[i + j] M[i - j + n - 1] has unit norm.

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
    h = grid.spacing
    norm2 = np.abs(match) ** 2 @ diagonal_sums(np.abs(pump) ** 2, grid.n_points) * h * h
    if norm2 == 0.0:
        raise ValueError("amplitude is identically zero")
    return pump, match * (1.0 / math.sqrt(norm2))


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


def default_grid(params: MultiPeakParams, n_points: int, span_sigmas: float) -> WavevectorGrid:
    """Signal grid centered on the emission branch; the idler grid is its mirror.

    The span covers every pump peak plus ``span_sigmas`` of the widest
    Gaussian on each side. ``branch='+'`` centers the grid at +offset/2,
    so the idler grid sits at -offset/2; ``branch='both'`` centers it at
    zero and widens the span to reach both rings.
    """
    extent = float(np.max(np.abs(params.mode_offsets()))) if params.n_peaks > 1 else 0.0
    half = extent + span_sigmas * params.widths.widest
    k0 = params.noncollinear_offset / 2.0
    if params.branch == "both":
        return WavevectorGrid.centered(0.0, half + k0, n_points)
    return WavevectorGrid.centered(k0, half, n_points)


def multipeak_profiles(params: MultiPeakParams, grid: WavevectorGrid) -> tuple:
    """(pump factor, matching factor, build warnings) of a multi-peak pump.

    Pump factor: sum of Gaussians in (ks + ki) at :meth:`pump_centers`.
    Matching factor: Gaussian in (ks - ki) centered at the offset on the
    chosen branch (or the sum of both branches). Both are sampled at
    :func:`sum_difference_nodes`, unnormalized; the grid is checked first.
    """
    warns = check_grids([params], grid)
    sums, delta = sum_difference_nodes(grid)
    return params.pump_factor(sums), params.matching_factor(delta), warns


def build_multipeak(params: MultiPeakParams, grid: WavevectorGrid) -> TpaKernel:
    """Joint amplitude of a multi-peak pump with Gaussian phase matching:
    the kernel of :func:`multipeak_profiles`."""
    return TpaKernel.from_profiles(grid, *multipeak_profiles(params, grid))


def multipeak_intensity(params: MultiPeakParams, grid: WavevectorGrid) -> JointIntensity:
    """|F|^2 of :func:`build_multipeak`, with no joint array formed."""
    return JointIntensity.from_profiles(grid, *multipeak_profiles(params, grid))


def build_double_gaussian(widths: PumpWidths, grid: WavevectorGrid) -> TpaKernel:
    """Gaussian-pump, gaussian-phase-matching joint amplitude around k = 0.

    F(ks, ki) = exp(-(ks+ki)^2 / (2 sigma_pump^2))
              * exp(-(ks-ki)^2 / (2 sigma_match^2)), normalized: the
    single-peak, zero-offset case of :func:`build_multipeak`.
    """
    return build_multipeak(MultiPeakParams((1.0,), 0.0, 0.0, widths), grid)


def check_grids(samples: Sequence[MultiPeakParams], grid: WavevectorGrid) -> list:
    """Build warnings of multi-peak pumps on a signal grid and its mirror.

    Raises ValueError when the grid cannot resolve the narrowest width. The
    samples differ only in their offset; a grid that clips the union of
    their amplitude supports gets one warning, and its mirror another.
    """
    params = samples[0]
    widths = params.widths
    step = MAX_STEP_FRACTION * widths.narrowest
    if grid.spacing > step:
        raise ValueError(
            f"signal grid step {grid.spacing:.4g} cannot resolve the narrowest "
            f"width {widths.narrowest:.4g}; need step <= {step:.4g} "
            f"(>= {np.ceil((grid.k_max - grid.k_min) / step) + 1:.6g} points)"
        )

    warns = []
    if params.n_peaks > 1 and params.peak_spacing <= 4.0 * widths.widest:
        warns.append(
            f"peak spacing {params.peak_spacing:.4g} is within 4 widths "
            f"({4.0 * widths.widest:.4g}) of the peaks; modes overlap and the "
            "per-peak factorization is invalid"
        )

    covers = [default_grid(p, grid.n_points, MIN_COVER_SIGMAS) for p in samples]
    cover = WavevectorGrid(min(c.k_min for c in covers), max(c.k_max for c in covers),
                           grid.n_points)
    if not grid.covers(cover.k_min, cover.k_max):
        warns += [f"{label} grid [{g.k_min:.4g}, {g.k_max:.4g}] clips the amplitude "
                  f"support [{c.k_min:.4g}, {c.k_max:.4g}]; tails are truncated"
                  for label, g, c in (("signal", grid, cover),
                                      ("idler", grid.mirrored(), cover.mirrored()))]
    return warns


# ---------------------------------------------------------------------------
# arbitrary sampled pump
# ---------------------------------------------------------------------------

def sum_coordinate_grid(grid: WavevectorGrid) -> WavevectorGrid:
    """Grid of all ks + ki sums of a signal grid and its mirror.

    The sums land exactly on this grid's nodes, so a profile sampled here
    is read at ks + ki without interpolation error.
    """
    return WavevectorGrid(grid.k_min - grid.k_max, grid.k_max - grid.k_min,
                          2 * grid.n_points - 1)


def sum_difference_nodes(grid: WavevectorGrid) -> tuple:
    """The (ks + ki, ks - ki) values that :func:`sum_difference_product` reads:
    node m of :func:`sum_coordinate_grid` is the sum at i + j = m and, shifted
    by the grid's k_min + k_max, the difference at i - j = m - (n - 1)."""
    sums = sum_coordinate_grid(grid).points()
    return sums, sums + (grid.k_min + grid.k_max)


def sum_difference_product(at_sums: np.ndarray, at_differences: np.ndarray, n: int) -> np.ndarray:
    """Joint array [i, j] -> at_sums[i + j] * at_differences[i - j + n - 1],
    with both sampled at :func:`sum_difference_nodes`."""
    return (sliding_window_view(at_sums, n)
            * sliding_window_view(at_differences, n)[:, ::-1])


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
                    grid: WavevectorGrid, phasematch_model: str = "gaussian") -> TpaKernel:
    """Joint amplitude from a sampled pump spectrum and a matching profile.

    ``spectrum`` holds the pump at the nodes of ``sum_coordinate_grid(grid)``.
    The offset K, the matching width sigma_match and the branch are the
    run's resolved ones, read from ``params``; ``config`` supplies only the
    crystal constants of the sinc profile. ``phasematch_model`` picks the
    profile at the differences ks - ki:

    * ``"gaussian"``: exp(-(delta - K)^2 / (2 sigma_match^2)), plus its
      mirror at -K for ``branch='both'``,
    * ``"sinc"``: the longitudinal mismatch profile itself,
      sinc[(L/4) (delta^2 - K^2) / (2 k_s)] (noncollinear; delta >= 0 only
      for ``branch='+'``) or sinc[(L/4) delta^2 / (2 k_p)] (collinear; a
      non-zero resolved offset is refused, as this profile peaks at 0).
    """
    if phasematch_model not in ("gaussian", "sinc"):
        raise ValueError(f"unknown phase-matching model {phasematch_model!r}")
    offset = params.noncollinear_offset
    if phasematch_model == "sinc" and config.regime == "collinear" and offset != 0.0:
        raise ValueError(f"the collinear sinc profile is centred at ks - ki = 0 and cannot "
                         f"sit on the resolved offset {offset:.4g} 1/um")
    sums, delta = sum_difference_nodes(grid)
    if np.shape(spectrum) != sums.shape:
        raise ValueError(f"pump spectrum has shape {np.shape(spectrum)}; need {sums.size} "
                         "samples at the nodes of sum_coordinate_grid(grid)")

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

    return TpaKernel.from_profiles(grid, spectrum, match)


def marginal_intensity(inten: JointIntensity, which: str = "signal") -> tuple:
    """(k_points, intensity) of one photon with the partner integrated out.

    The signal marginal at node i is the band sum over the idler nodes j of
    at_sums[i + j] * at_differences[i - j + n - 1]; only pairs whose
    partner lies on its grid count, as on the joint array.
    """
    if which == "idler":
        # the transpose: ki - ks = -(ks - ki) reverses the difference nodes,
        # and the idler grid's mirror is the signal grid
        inten = JointIntensity(inten.grid_i, inten.at_sums, inten.at_differences[::-1])
    elif which != "signal":
        raise ValueError(f"which must be 'signal' or 'idler', got {which!r}")
    band = inten.weighted_columns(0, np.ones(inten.grid_s.n_points))
    return inten.grid_s.points(), band * inten.grid_s.spacing
