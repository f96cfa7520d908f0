"""Joint two-photon amplitudes on transverse-wavevector grids.

Every model here has the form F(ks, ki) = P(ks + ki) M(ks - ki): a pump
profile P at the sums and a phase-matching profile M at the differences.
On a signal grid and its mirror, the idler grid, both are 1D arrays on
the nodes of :func:`sum_difference_nodes`, and every joint quantity is
read off that pair. A :class:`ProfilePair` holds it, and its one window
rule reads any block of rows and columns of the joint array
at_sums[i + j] * at_differences[i - j + n - 1] as the product of two
sliding windows, so no command forms the whole array, and its
:attr:`ProfilePair.swapped` exchanges the photons. :class:`TpaKernel`
is the pair P, M, with ks along axis 0 and ki along axis 1: the kernel
table reads it through :meth:`TpaKernel.rows`, and the Schmidt
decomposition through its one product :meth:`TpaKernel.times`, which
forms each block over the profiles' support only; a kernel's swap is
its adjoint. Every kernel's :attr:`TpaKernel.intensity` is a
:class:`JointIntensity`, the pair |P|^2, |M|^2 that the slit scans read.
Builders cover the plain double-Gaussian case, the structured multi-peak
pump, and a pump spectrum sampled on :func:`sum_coordinate_grid`
combined with a gaussian or sinc phase-matching profile. The amplitude
is real (float64) unless the pump spectrum is complex:
:func:`build_from_pump` builds a complex128 kernel from a complex sampled
spectrum and a float64 one from a real spectrum.

Normalization is always the Riemann quadrature
sum |F|^2 dks dki = 1 on the kernel's own grid and its mirror.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .optics import PhaseMatchConfig, WavevectorGrid

# grids must resolve the narrowest feature; refuse anything coarser
MAX_STEP_FRACTION = 0.25
# grids must cover the amplitude support out to this many widths
MIN_COVER_SIGMAS = 4.0
# rows of the amplitude formed at once by the kernel's products
ROW_BLOCK = 32
# a difference profile this close to its mirror, relative to its peak, makes
# the kernel symmetric under photon exchange
SYMMETRIC_RTOL = 1e-12


class MirroredIdler:
    """Base of the objects on one grid, ``grid_s``, whose mirror is the idler grid."""

    @property
    def grid_i(self) -> WavevectorGrid:
        return self.grid_s.mirrored()


@dataclass(frozen=True, eq=False)
class ProfilePair(MirroredIdler):
    """The joint array at_sums[i + j] * at_differences[i - j + n - 1] on an
    n-point grid, held as its two 1D profiles on the nodes of
    :func:`sum_difference_nodes`, with its grid. A caveat about the pair,
    such as a grid that clips it, is a ``UserWarning`` of its builder."""

    grid_s: WavevectorGrid
    at_sums: np.ndarray
    at_differences: np.ndarray

    def __post_init__(self):
        expected = (2 * self.grid_s.n_points - 1,)
        for profile in (self.at_sums, self.at_differences):
            if np.shape(profile) != expected:
                raise ValueError(f"profile shape {np.shape(profile)} does not match "
                                 f"the grid's {expected} sum and difference nodes")

    @cached_property
    def swapped(self) -> "ProfilePair":
        """The photons exchanged: the pair of the joint array's conjugate
        transpose on the mirrored grid, ki - ks reversing the difference nodes.
        An intensity's idler observables are the signal ones of its swap, and a
        kernel's swap is its adjoint; a real pair's swap holds views. Formed once."""
        return type(self)(self.grid_i, self.at_sums.conj(), self.at_differences[::-1].conj())

    def _windows(self, start: int, stop: int, j0: int, j1: int) -> tuple:
        """Two sliding-window views of the profiles whose elementwise product
        is rows ``start`` to ``stop`` and columns j0 to j1 of the joint array."""
        n, width = self.grid_s.n_points, j1 - j0
        return (sliding_window_view(self.at_sums[start + j0:stop + j1 - 1], width),
                sliding_window_view(self.at_differences[start + n - j1:stop + n - j0 - 1],
                                    width)[:, ::-1])


class TpaKernel(ProfilePair):
    """Sampled joint amplitude P[i + j] M[i - j + n - 1]: the pair P, M."""

    @classmethod
    def from_profiles(cls, grid: WavevectorGrid, at_sums: np.ndarray,
                      at_differences: np.ndarray) -> "TpaKernel":
        """The normalized kernel P[i + j] M[i - j + n - 1] of a profile pair.

        A real pair gives a float64 kernel, a complex one complex128. Each
        profile is first scaled to a unit peak, so no square in
        :func:`_squared_norm` overflows and every product stays finite.
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
        norm2 = _squared_norm(pump, match, grid)
        if norm2 == 0.0:
            raise ValueError("amplitude is identically zero")
        return cls(grid, pump, match * (1.0 / math.sqrt(norm2)))

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start`` to ``stop`` of the joint amplitude, formed from the profiles."""
        return self._block(start, stop, 0, self.grid_s.n_points)

    @property
    def dtype(self) -> np.dtype:
        """The amplitude's dtype: float64 for a real profile pair, complex128 otherwise."""
        return np.result_type(self.at_sums, self.at_differences)

    @cached_property
    def symmetric(self) -> bool:
        """Whether F[i, j] = F[j, i], the photons exchanged: M is within
        SYMMETRIC_RTOL of max |M| of its reverse M[2 n - 2 - m], whatever P."""
        match = self.at_differences
        return bool(np.abs(match - match[::-1]).max() <= SYMMETRIC_RTOL * np.abs(match).max())

    def times(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` = (a x^T)^T: row k of ``out`` is a @ x[k], for c vectors held
        as the rows of the c x N ``x``, the Schmidt basis's layout; ``out`` must
        have its shape and dtype and share no memory with ``x``. The row blocks
        of :attr:`_row_blocks` are formed one at a time into one buffer and
        multiplied straight into their columns of ``out``; rows of ``a`` that
        no block covers give zeros."""
        if out.shape != x.shape or x.ndim != 2 or x.shape[1] != self.grid_s.n_points:
            raise ValueError(f"product of shape {x.shape} into {out.shape}; need c x "
                             f"{self.grid_s.n_points} for both")
        if out.dtype != np.result_type(self.dtype, x):
            raise TypeError(f"product out has dtype {out.dtype}; need "
                            f"{np.result_type(self.dtype, x)}")
        if np.may_share_memory(x, out):
            raise ValueError("product out shares memory with its input")
        out[...] = 0
        largest = max(((stop - start) * (j1 - j0) for start, stop, j0, j1 in self._row_blocks),
                      default=0)
        buffer = np.empty(largest, self.dtype)
        for start, stop, j0, j1 in self._row_blocks:
            np.matmul(x[:, j0:j1], self._block(start, stop, j0, j1, buffer).T,
                      out=out[:, start:stop])
        return out

    def _block(self, start: int, stop: int, j0: int, j1: int,
               buffer: Optional[np.ndarray] = None) -> np.ndarray:
        """Rows ``start`` to ``stop`` of the joint amplitude over columns j0 to j1
        only, formed in the front of ``buffer`` when one is given."""
        if buffer is not None:
            buffer = buffer[:(stop - start) * (j1 - j0)].reshape(stop - start, j1 - j0)
        return np.multiply(*self._windows(start, stop, j0, j1), out=buffer)

    @cached_property
    def _row_blocks(self) -> list:
        """(start, stop, j0, j1) for each block of ROW_BLOCK rows of ``a`` that
        meets the support of both profiles: columns j0 to j1 hold every entry of
        rows start to stop whose i + j lies in the support of the sum profile P
        and whose i - j + n - 1 lies in that of the difference profile M.

        Each end of P is cut while its weight times ||M||^2 stays within
        (u ||a||_F)^2 / 4, with u the unit roundoff and ||a||_F the kernel's
        norm over h, and each end of M likewise. (i, j) -> (i + j, i - j) is
        one to one, so the entries left out, E, have ||E||_F <= u ||a||_F, and
        by Weyl's inequality no singular value of ``a`` moves by more than
        u ||a||_F, the rounding of float64 itself. A block whose window is
        empty has only zero rows of a @ x and is left out. Found once.
        """
        n = self.grid_s.n_points
        pump, match = np.abs(self.at_sums) ** 2, np.abs(self.at_differences) ** 2
        budget = (np.finfo(float).eps / 2 * self.norm() / self.grid_s.spacing) ** 2 / 4
        p0, p1 = _support(pump, budget / match.sum())
        m0, m1 = _support(match, budget / pump.sum())
        blocks = []
        for start in range(0, n, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, n)
            j0 = max(0, p0 - (stop - 1), start + n - m1)
            j1 = min(n, p1 - start, stop - 1 + n - m0)
            if j0 < j1:
                blocks.append((start, stop, j0, j1))
        return blocks

    @property
    def amplitude(self) -> np.ndarray:
        """The whole N x N joint amplitude, formed on each access. No command
        reads it: the tests and perfbench/tracer.py's kernel.amp_bytes do."""
        return self.rows(0, self.grid_s.n_points)

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.at_sums, self.at_differences, self.grid_s))

    @cached_property
    def intensity(self) -> "JointIntensity":
        """|F|^2, held as the pair |P|^2, |M|^2 with no joint array formed. Formed once."""
        return JointIntensity(self.grid_s, np.abs(self.at_sums) ** 2,
                              np.abs(self.at_differences) ** 2)


class JointIntensity(ProfilePair):
    """|F|^2 of a kernel F = P M: the pair |P|^2, |M|^2, whose joint array
    integrates to 1."""

    @classmethod
    def averaged(cls, grid: WavevectorGrid, pump: np.ndarray, matches: np.ndarray,
                 weights: np.ndarray) -> "JointIntensity":
        """The ``weights``-average of the :attr:`TpaKernel.intensity` of the real
        ``pump`` paired with each row of the real ``matches``, renormalized.

        The intensity of a pair (P, M) is P^2[i + j] M^2[i - j] / n, with the
        norm n = h^2 sum_d M^2[d] D[d] on a grid of spacing h and its mirror,
        where D is the :func:`diagonal_sums` of P^2. The average is then
        P^2[i + j] g[i - j] with the 1D g = sum of (weight / n) M^2, and the
        result holds the pair (P^2, g).
        """
        if not (np.all(np.isfinite(pump)) and np.all(np.isfinite(matches))):
            raise ValueError("amplitude contains non-finite entries")
        pump2 = pump * pump
        match2 = matches * matches
        diagonal = diagonal_sums(pump2, grid.n_points)
        area = grid.spacing * grid.spacing
        norms = (match2 @ diagonal) * area
        if np.any(norms == 0.0):
            raise ValueError("amplitude is identically zero")
        g = (weights / norms) @ match2
        # renormalize like a kernel intensity: unit integral
        g /= (g @ diagonal) * area
        return cls(grid, pump2, g)

    def weighted_columns(self, start: int, weights: np.ndarray) -> np.ndarray:
        """sum_c weights[c] |F|^2[:, start + c], one value per signal node.

        The columns are read off the two profiles' windows, so no block of
        the joint array is formed.
        """
        return np.einsum("ic,ic,c->i", *self._windows(0, self.grid_s.n_points, start,
                                                        start + len(weights)), weights)

    @cached_property
    def marginal(self) -> np.ndarray:
        """Read-only signal intensity with the idler integrated out, one value per
        signal node: the band sum over the idler nodes j of
        at_sums[i + j] * at_differences[i - j + n - 1], so only pairs whose
        partner lies on its grid count, as on the joint array. Formed once."""
        band = self.weighted_columns(0, np.ones(self.grid_s.n_points)) * self.grid_s.spacing
        band.flags.writeable = False
        return band


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


def _support(weights: np.ndarray, budget: float) -> tuple:
    """[lo, hi): ``weights`` less its longest ends that each sum to at most ``budget``."""
    lo = int(np.searchsorted(np.cumsum(weights), budget, side="right"))
    return lo, weights.size - int(np.searchsorted(np.cumsum(weights[::-1]), budget, side="right"))


def _squared_norm(at_sums: np.ndarray, at_differences: np.ndarray,
                  grid: WavevectorGrid) -> float:
    """h^2 sum_m |M[m]|^2 D[m], with D the :func:`diagonal_sums` of |P|^2:
    the squared norm of P[i + j] M[i - j + n - 1] on the grid and its mirror."""
    h = grid.spacing
    return float(np.abs(at_differences) ** 2 @ diagonal_sums(np.abs(at_sums) ** 2, grid.n_points)
                 * h * h)


@dataclass(frozen=True)
class MultiPeakParams:
    """Structured pump made of equally spaced Gaussian peaks in the far field.

    ``amplitudes`` holds each peak's field amplitude, in :meth:`mode_offsets`
    order; ``peak_spacing`` is the far-field distance between adjacent
    signal peaks (1/um), positive for several peaks and 0 for one, which has
    no spacing. The emission ring sits at +offset; ``both_branches`` adds
    its mirror at -offset. ``sigma_pump`` is the pump angular-spectrum width
    (sum coordinate), ``sigma_match`` the phase-matching width (difference
    coordinate), both in 1/um.
    """

    amplitudes: Tuple[float, ...]
    peak_spacing: float
    noncollinear_offset: float
    sigma_pump: float
    sigma_match: float
    both_branches: bool = False

    def __post_init__(self):
        if not self.amplitudes:
            raise ValueError("need at least one peak")
        if self.n_peaks > 1 and self.peak_spacing <= 0:
            raise ValueError(f"peak spacing must be positive, got {self.peak_spacing}")
        if self.n_peaks == 1 and self.peak_spacing != 0:
            raise ValueError(f"a single peak has no spacing, got {self.peak_spacing}")
        if self.noncollinear_offset < 0:
            raise ValueError("offset must be >= 0; both_branches adds the mirror ring")
        if self.sigma_pump <= 0 or self.sigma_match <= 0:
            raise ValueError(
                f"widths must be positive, got sigma_pump={self.sigma_pump}, "
                f"sigma_match={self.sigma_match}"
            )

    @property
    def n_peaks(self) -> int:
        return len(self.amplitudes)

    @property
    def widest(self) -> float:
        return max(self.sigma_pump, self.sigma_match)

    @property
    def narrowest(self) -> float:
        return min(self.sigma_pump, self.sigma_match)

    def mode_offsets(self) -> np.ndarray:
        """Far-field signal-mode centers, symmetric around 0, spaced by peak_spacing."""
        m = np.arange(self.n_peaks)
        return (self.n_peaks - 1 - 2 * m) * self.peak_spacing / 2.0

    def signal_centers(self) -> np.ndarray:
        """Signal-mode centers: the offsets shifted by half the ring offset, then,
        with ``both_branches`` off a nonzero offset, the same centers on the
        mirror ring (at zero offset the two rings coincide)."""
        centers = self.mode_offsets() + self.noncollinear_offset / 2.0
        if self.both_branches and self.noncollinear_offset > 0:
            centers = np.concatenate([centers, centers - self.noncollinear_offset])
        return centers

    def mode_spacing(self) -> Optional[float]:
        """Smallest gap between distinct :meth:`signal_centers`, or None for one mode."""
        # sorted positive gaps, not np.unique, whose numpy 2.4 code imports numpy.ma
        gaps = np.diff(np.sort(self.signal_centers()))
        gaps = gaps[gaps > 0]
        return float(gaps.min()) if gaps.size else None

    def pump_centers(self) -> np.ndarray:
        """Sum-coordinate (ks + ki) centers of the pump peaks: twice the offsets."""
        return 2.0 * self.mode_offsets()

    def pump_factor(self, total: np.ndarray) -> np.ndarray:
        """Pump comb at sum coordinates ks + ki: a Gaussian at each of
        :meth:`pump_centers`, scaled by its amplitude."""
        return _gaussians(total, zip(self.amplitudes, self.pump_centers()), self.sigma_pump)

    def matching_factor(self, delta: np.ndarray) -> np.ndarray:
        """Gaussian phase matching at differences ks - ki, centred at the offset.

        ``both_branches`` adds the mirror Gaussian at minus the offset.
        """
        offset = self.noncollinear_offset
        centers = (offset, -offset) if self.both_branches else (offset,)
        return _gaussians(delta, [(1.0, c) for c in centers], self.sigma_match)


def _gaussians(x: np.ndarray, terms, sigma: float) -> np.ndarray:
    """sum of a exp(-(x - c)^2 / (2 sigma^2)) over the (a, c) pairs of ``terms``,
    complex if an amplitude a is."""
    return sum(a * np.exp(-((x - c) ** 2) / (2.0 * sigma ** 2)) for a, c in terms)


def default_grid(params: MultiPeakParams, n_points: int, span_sigmas: float) -> WavevectorGrid:
    """Signal grid centered on the emission branch; the idler grid is its mirror.

    The span covers every pump peak plus ``span_sigmas`` of the widest
    Gaussian on each side. One ring centers the grid at +offset/2, so the
    idler grid sits at -offset/2; ``both_branches`` centers it at zero and
    widens the span to reach both rings.
    """
    half = float(np.max(np.abs(params.mode_offsets()))) + span_sigmas * params.widest
    k0 = params.noncollinear_offset / 2.0
    if params.both_branches:
        return WavevectorGrid.centered(0.0, half + k0, n_points)
    return WavevectorGrid.centered(k0, half, n_points)


def build_multipeak(params: MultiPeakParams, grid: WavevectorGrid) -> TpaKernel:
    """Joint amplitude of a multi-peak pump with Gaussian phase matching.

    Pump factor: sum of Gaussians in (ks + ki) at :meth:`pump_centers`.
    Matching factor: Gaussian in (ks - ki) centered at the offset on the
    chosen branch (or the sum of both branches). Both are sampled at
    :func:`sum_difference_nodes`; the grid is checked first.
    """
    check_grids([params], grid)
    sums, delta = sum_difference_nodes(grid)
    return TpaKernel.from_profiles(grid, params.pump_factor(sums), params.matching_factor(delta))


def build_double_gaussian(sigma_pump: float, sigma_match: float,
                          grid: WavevectorGrid) -> TpaKernel:
    """Gaussian-pump, gaussian-phase-matching joint amplitude around k = 0.

    F(ks, ki) = exp(-(ks+ki)^2 / (2 sigma_pump^2))
              * exp(-(ks-ki)^2 / (2 sigma_match^2)), normalized: the
    single-peak, zero-offset case of :func:`build_multipeak`.
    """
    return build_multipeak(MultiPeakParams((1.0,), 0.0, 0.0, sigma_pump, sigma_match), grid)


def check_grids(samples: Sequence[MultiPeakParams], grid: WavevectorGrid) -> None:
    """Check multi-peak pumps on a signal grid and its mirror.

    Raises ValueError when the grid cannot resolve the narrowest width, and
    warns (UserWarning) when the peaks overlap. The samples differ only in
    their offset; a grid that clips the union of their amplitude supports
    gets one warning, and its mirror another.
    """
    params = samples[0]
    step = MAX_STEP_FRACTION * params.narrowest
    if grid.spacing > step:
        raise ValueError(
            f"signal grid step {grid.spacing:.4g} cannot resolve the narrowest "
            f"width {params.narrowest:.4g}; need step <= {step:.4g} "
            f"(>= {np.ceil((grid.k_max - grid.k_min) / step) + 1:.6g} points)"
        )

    if 0 < params.peak_spacing <= 4.0 * params.widest:
        warnings.warn(
            f"peak spacing {params.peak_spacing:.4g} is within 4 widths "
            f"({4.0 * params.widest:.4g}) of the peaks; modes overlap and the "
            "per-peak factorization is invalid"
        )

    covers = [default_grid(p, grid.n_points, MIN_COVER_SIGMAS) for p in samples]
    cover = WavevectorGrid(min(c.k_min for c in covers), max(c.k_max for c in covers),
                           grid.n_points)
    if not grid.covers(cover.k_min, cover.k_max):
        for label, g, c in (("signal", grid, cover), ("idler", grid.mirrored(), cover.mirrored())):
            warnings.warn(f"{label} grid [{g.k_min:.4g}, {g.k_max:.4g}] clips the amplitude "
                          f"support [{c.k_min:.4g}, {c.k_max:.4g}]; tails are truncated")


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
    """The (ks + ki, ks - ki) values of a :class:`ProfilePair`'s two profiles:
    node m of :func:`sum_coordinate_grid` is the sum at i + j = m and, shifted
    by the grid's k_min + k_max, the difference at i - j = m - (n - 1)."""
    sums = sum_coordinate_grid(grid).points()
    return sums, sums + (grid.k_min + grid.k_max)


def build_from_pump(spectrum: np.ndarray, params: MultiPeakParams, config: PhaseMatchConfig,
                    grid: WavevectorGrid, phasematch_model: str = "gaussian") -> TpaKernel:
    """Joint amplitude from a sampled pump spectrum and a matching profile.

    ``spectrum`` holds the pump at the nodes of ``sum_coordinate_grid(grid)``.
    The offset K, the matching width sigma_match and the rings are the
    run's resolved ones, read from ``params``; ``config`` supplies only the
    crystal constants of the sinc profile. ``phasematch_model`` picks the
    profile at the differences ks - ki:

    * ``"gaussian"``: exp(-(delta - K)^2 / (2 sigma_match^2)), plus its
      mirror at -K with ``both_branches``,
    * ``"sinc"``: the longitudinal mismatch profile itself,
      sinc[(L/4) (delta^2 - K^2) / (2 k_s)] (noncollinear; delta >= 0 only
      without ``both_branches``) or sinc[(L/4) delta^2 / (2 k_p)] (collinear; a
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
        if config.regime != "collinear" and not params.both_branches:
            match[delta < 0] = 0.0

    return TpaKernel.from_profiles(grid, spectrum, match)
