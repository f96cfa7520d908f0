"""Joint two-photon amplitudes on transverse-wavevector grids.

The central object is :class:`TpaKernel`: an amplitude F(ks, ki) sampled
on a pair of 1D wavevector grids, with ks along axis 0 and ki along
axis 1. Builders cover the plain double-Gaussian case, the structured
multi-peak pump, and an arbitrary sampled pump spectrum combined with a
gaussian or sinc phase-matching profile. The amplitude is real (float64)
unless the pump spectrum is complex: :func:`build_from_pump` builds a
complex128 kernel from a complex sampled spectrum and a float64 one from
a real spectrum.

Normalization is always the Riemann quadrature
sum |F|^2 dks dki = 1 on the kernel's own grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

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
    normalized: bool = True
    warnings: tuple = ()

    def __post_init__(self):
        expected = (self.grid_s.n_points, self.grid_i.n_points)
        if self.amplitude.shape != expected:
            raise ValueError(
                f"amplitude shape {self.amplitude.shape} does not match grids {expected}"
            )

    @classmethod
    def from_array(cls, grid_s: WavevectorGrid, grid_i: WavevectorGrid,
                   amplitude: np.ndarray, warnings: Sequence[str] = ()) -> "TpaKernel":
        """Wrap and normalize an externally built amplitude array.

        A real input stays real (float64); a complex one stays complex128.
        """
        amp = np.asarray(amplitude)
        amp = amp.astype(complex if np.iscomplexobj(amp) else float, copy=False)
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitude contains non-finite entries")
        norm = _norm(amp, grid_s, grid_i)
        if norm == 0.0:
            raise ValueError("amplitude is identically zero")
        # numpy divides complex by real as a multiply by the reciprocal, so
        # this form gives a real input the same bits as its complex promotion
        return cls(grid_s, grid_i, amp * (1.0 / norm), True, tuple(warnings))

    def intensity(self) -> "JointIntensity":
        return JointIntensity(self.grid_s, self.grid_i,
                              np.abs(self.amplitude) ** 2, self.warnings)

    def norm(self) -> float:
        return _norm(self.amplitude, self.grid_s, self.grid_i)


@dataclass(frozen=True, eq=False)
class JointIntensity:
    """|F|^2 on the same grid layout as the kernel it came from."""

    grid_s: WavevectorGrid
    grid_i: WavevectorGrid
    values: np.ndarray
    warnings: tuple = ()


def _norm(amp: np.ndarray, grid_s: WavevectorGrid, grid_i: WavevectorGrid) -> float:
    total = np.sum(np.abs(amp) ** 2) * grid_s.spacing * grid_i.spacing
    return math.sqrt(total)


def _check_resolution(grid: WavevectorGrid, narrowest: float, label: str) -> None:
    if grid.spacing > MAX_STEP_FRACTION * narrowest:
        raise ValueError(
            f"{label} grid step {grid.spacing:.4g} cannot resolve the narrowest "
            f"width {narrowest:.4g}; need step <= {MAX_STEP_FRACTION * narrowest:.4g} "
            f"(>= {np.ceil((grid.k_max - grid.k_min) / (MAX_STEP_FRACTION * narrowest)) + 1:.0f} points)"
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

    ``peak_spacing`` is the far-field distance between adjacent signal
    peaks (1/um); pump sum-coordinate centers sit at twice the far-field
    mode offsets. ``side_amplitude`` scales the outer peaks of a 3-peak
    pump relative to the central one (field units).
    """

    n_peaks: int
    peak_spacing: float
    noncollinear_offset: float
    widths: PumpWidths
    side_amplitude: Optional[float] = None

    def __post_init__(self):
        if self.n_peaks < 1:
            raise ValueError(f"need at least one peak, got {self.n_peaks}")
        if self.n_peaks > 1 and self.peak_spacing <= 0:
            raise ValueError(f"peak spacing must be positive, got {self.peak_spacing}")
        if self.noncollinear_offset < 0:
            raise ValueError("offset must be >= 0; the branch sign is chosen at build time")
        if self.side_amplitude is not None:
            if self.n_peaks != 3:
                raise ValueError("side_amplitude only applies to 3-peak pumps")
            if not (0.0 < self.side_amplitude <= 1.0):
                raise ValueError(f"side_amplitude must be in (0, 1], got {self.side_amplitude}")

    def mode_offsets(self) -> np.ndarray:
        """Far-field signal-mode centers, symmetric around 0, spaced by peak_spacing."""
        m = np.arange(self.n_peaks)
        return (self.n_peaks - 1 - 2 * m) * self.peak_spacing / 2.0

    def signal_centers(self) -> np.ndarray:
        """Signal-mode centers on the emission ring: the offsets shifted by half the ring offset."""
        return self.mode_offsets() + self.noncollinear_offset / 2.0

    def pump_centers(self) -> np.ndarray:
        """Sum-coordinate (ks + ki) centers of the pump peaks: twice the offsets."""
        return 2.0 * self.mode_offsets()

    def weights(self) -> np.ndarray:
        """Field weights per peak; uniform unless side_amplitude is set."""
        if self.side_amplitude is not None:
            a = self.side_amplitude / 2.0
            return np.array([a, 0.5, a])
        return np.ones(self.n_peaks)

    def pump_factor(self, total: np.ndarray) -> np.ndarray:
        """Pump comb at sum coordinates ks + ki: a Gaussian at each of
        :meth:`pump_centers`, scaled by :meth:`weights`."""
        pump = np.zeros_like(total)
        for w, c in zip(self.weights(), self.pump_centers()):
            pump += w * np.exp(-((total - c) ** 2) / (2.0 * self.widths.sigma_pump ** 2))
        return pump

    def matching_factor(self, delta: np.ndarray, branch: str) -> np.ndarray:
        """Gaussian phase matching at differences ks - ki, centred at the offset.

        ``branch='both'`` adds the mirror Gaussian at minus the offset.
        """
        offset, sigma = self.noncollinear_offset, self.widths.sigma_match
        if branch == "+":
            return np.exp(-((delta - offset) ** 2) / (2.0 * sigma ** 2))
        return (np.exp(-((delta - offset) ** 2) / (2.0 * sigma ** 2))
                + np.exp(-((delta + offset) ** 2) / (2.0 * sigma ** 2)))


def default_grids(params: MultiPeakParams, n_points: int = 512,
                  span_sigmas: float = 5.0, branch: str = "+") -> tuple:
    """(signal, idler) grids centered on the emission branch.

    Spans cover every pump peak plus ``span_sigmas`` of the widest Gaussian
    on each side. ``branch='+'`` centers the signal grid at +offset/2 and
    the idler grid at -offset/2; ``branch='both'`` centers both grids at
    zero and widens the span to reach both rings.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    extent = float(np.max(np.abs(params.mode_offsets()))) if params.n_peaks > 1 else 0.0
    half = extent + span_sigmas * params.widths.widest
    k0 = params.noncollinear_offset / 2.0
    if branch == "both":
        half += k0
        return (WavevectorGrid.centered(0.0, half, n_points),
                WavevectorGrid.centered(0.0, half, n_points))
    return (WavevectorGrid.centered(k0, half, n_points),
            WavevectorGrid.centered(-k0, half, n_points))


def build_multipeak(params: MultiPeakParams, grid_s: WavevectorGrid,
                    grid_i: Optional[WavevectorGrid] = None,
                    branch: str = "+") -> TpaKernel:
    """Joint amplitude of a multi-peak pump with Gaussian phase matching.

    Pump factor: sum of Gaussians in (ks + ki) at :meth:`pump_centers`.
    Matching factor: Gaussian in (ks - ki) centered at the offset on the
    chosen branch (or the sum of both branches).
    """
    if grid_i is None:
        grid_i = grid_s
    warns = check_grids([params], grid_s, grid_i, branch)
    ks = grid_s.points()[:, None]
    ki = grid_i.points()[None, :]
    amp = params.pump_factor(ks + ki) * params.matching_factor(ks - ki, branch)
    return TpaKernel.from_array(grid_s, grid_i, amp, warns)


def build_double_gaussian(widths: PumpWidths, grid_s: WavevectorGrid,
                          grid_i: Optional[WavevectorGrid] = None) -> TpaKernel:
    """Gaussian-pump, gaussian-phase-matching joint amplitude around k = 0.

    F(ks, ki) = exp(-(ks+ki)^2 / (2 sigma_pump^2))
              * exp(-(ks-ki)^2 / (2 sigma_match^2)), normalized: the
    single-peak, zero-offset case of :func:`build_multipeak`.
    """
    return build_multipeak(MultiPeakParams(1, 0.0, 0.0, widths), grid_s, grid_i)


def check_grids(samples: Sequence[MultiPeakParams], grid_s: WavevectorGrid,
                grid_i: WavevectorGrid, branch: str) -> list:
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

    covers = [default_grids(p, grid_s.n_points, MIN_COVER_SIGMAS, branch) for p in samples]
    warns += _coverage_warnings(grid_s, grid_i, *(
        WavevectorGrid(min(c.k_min for c in axis), max(c.k_max for c in axis), grid_s.n_points)
        for axis in zip(*covers)))
    return warns


# ---------------------------------------------------------------------------
# arbitrary sampled pump
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PumpSpectrum:
    """Pump angular spectrum sampled on a sum-coordinate grid (1/um).

    Construction normalizes to unit intensity integral (trapezoid rule),
    so every spectrum carries the same overall scale.
    """

    k_points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.k_points.ndim != 1 or self.k_points.shape != self.values.shape:
            raise ValueError("k_points and values must be matching 1D arrays")
        if self.k_points.size < 2:
            raise ValueError("need at least 2 samples")
        d = np.diff(self.k_points)
        if not np.all(d > 0):
            raise ValueError("k_points must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum contains non-finite entries")
        power = np.trapezoid(np.abs(self.values) ** 2, self.k_points)
        if power <= 0:
            raise ValueError("spectrum carries no power")
        object.__setattr__(self, "values", self.values / math.sqrt(power))


def sum_coordinate_grid(grid_s: WavevectorGrid, grid_i: WavevectorGrid) -> WavevectorGrid:
    """Grid of all ks + ki sums, aligned with the joint grids' nodes.

    For equal spacings the sums land exactly on this grid's nodes, so a
    pump spectrum sampled here feeds the kernel builder without
    interpolation error.
    """
    if not math.isclose(grid_s.spacing, grid_i.spacing, rel_tol=1e-12):
        raise ValueError(
            f"signal and idler spacings differ ({grid_s.spacing:.6g} vs "
            f"{grid_i.spacing:.6g}); the sum coordinate has no common grid"
        )
    return WavevectorGrid(grid_s.k_min + grid_i.k_min,
                          grid_s.k_max + grid_i.k_max,
                          grid_s.n_points + grid_i.n_points - 1)


def pump_spectrum_from_field(x_um: np.ndarray, field: np.ndarray,
                             k_grid: WavevectorGrid) -> PumpSpectrum:
    """Fourier transform a crystal-plane field onto a wavevector grid.

    Direct Riemann sum of E(x) exp(-i k x) dx at the requested nodes; slow
    but free of FFT gridding constraints, fine for the ~1e3-point profiles
    this package deals in.
    """
    x = np.asarray(x_um, dtype=float)
    e = np.asarray(field, dtype=complex)
    if x.ndim != 1 or x.shape != e.shape:
        raise ValueError("x_um and field must be matching 1D arrays")
    dx = np.diff(x)
    if not np.all(dx > 0):
        raise ValueError("x_um must be strictly increasing")
    k = k_grid.points()
    phase = np.exp(-1j * np.outer(k, x))
    # trapezoid weights keep the endpoints from being double-counted
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (dx[:-1] + dx[1:])
    w[0] = 0.5 * dx[0]
    w[-1] = 0.5 * dx[-1]
    vals = phase @ (e * w)
    return PumpSpectrum(k, vals)


def build_from_pump(pump: PumpSpectrum, params: MultiPeakParams, config: PhaseMatchConfig,
                    grid_s: WavevectorGrid, grid_i: Optional[WavevectorGrid] = None,
                    phasematch_model: str = "gaussian", branch: str = "+") -> TpaKernel:
    """Joint amplitude from a sampled pump spectrum and a matching profile.

    The pump factor is looked up at ks + ki (linear interpolation, zero
    outside the sampled range). The offset K and the matching width
    sigma_match are the run's resolved ones, read from ``params``; ``config``
    supplies only the crystal constants of the sinc profile.
    ``phasematch_model`` picks the difference-coordinate profile:

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
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    offset = params.noncollinear_offset
    if phasematch_model == "sinc" and config.regime == "collinear" and offset != 0.0:
        raise ValueError(f"the collinear sinc profile is centred at ks - ki = 0 and cannot "
                         f"sit on the resolved offset {offset:.4g} 1/um")

    ks = grid_s.points()[:, None]
    ki = grid_i.points()[None, :]
    total = ks + ki
    delta = ks - ki

    warns = []
    lo, hi = pump.k_points[0], pump.k_points[-1]
    if total.min() < lo or total.max() > hi:
        warns.append(
            f"sum coordinate range [{total.min():.4g}, {total.max():.4g}] extends past "
            f"the sampled pump spectrum [{lo:.4g}, {hi:.4g}]; treated as zero outside"
        )
    pump_factor = np.interp(total, pump.k_points, pump.values.real, left=0.0, right=0.0)
    if np.iscomplexobj(pump.values):
        pump_factor = pump_factor + 1j * np.interp(total, pump.k_points, pump.values.imag,
                                                   left=0.0, right=0.0)

    if phasematch_model == "gaussian":
        match = params.matching_factor(delta, branch)
    else:
        length = config.crystal_length_um
        if config.regime == "collinear":
            arg = (length / 4.0) * delta ** 2 / (2.0 * config.pump_wavevector)
            match = np.sinc(arg / math.pi)
        else:
            arg = (length / 4.0) * (delta ** 2 - offset ** 2) / (2.0 * config.signal_wavevector)
            match = np.sinc(arg / math.pi)
            if branch == "+":
                match = np.where(delta >= 0, match, 0.0)

    return TpaKernel.from_array(grid_s, grid_i, pump_factor * match, warns)


def marginal_intensity(inten: JointIntensity, which: str = "signal") -> tuple:
    """(k_points, intensity) of one photon with the partner integrated out."""
    if which == "signal":
        return inten.grid_s.points(), inten.values.sum(axis=1) * inten.grid_i.spacing
    if which == "idler":
        return inten.grid_i.points(), inten.values.sum(axis=0) * inten.grid_s.spacing
    raise ValueError(f"which must be 'signal' or 'idler', got {which!r}")
