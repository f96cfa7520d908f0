"""Units, grids, and phase-matching geometry shared by every module.

Internal conventions, used everywhere past the config boundary:

* lengths in micrometres (um),
* transverse wavevectors in inverse micrometres (1/um),
* every Gaussian width follows the amplitude convention
  ``exp(-k^2 / (2 sigma^2))``.

Millimetre and nanometre values of the crystal and pump are converted
once, on parse (see :mod:`spdc_modes.config`). The detection bench is the
exception: :class:`~spdc_modes.detection.DetectionGeometry` keeps mm and nm
and converts them in ``position_to_wavevector``, and
``detection.wavelength_average`` converts the filter's nm to um itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# FWHM of exp(-x^2/(2 s^2)) is GAUSSIAN_FWHM_FACTOR * s.
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Gaussian stand-ins for the longitudinal sinc profile:
#   sinc(x^2) ~ exp(-0.249 x^2)   (collinear quadratic mismatch)
#   sinc(x)   ~ exp(-0.195 x^2)   (noncollinear linearized mismatch)
SINC_SQ_GAUSSIAN_FIT = 0.249
SINC_GAUSSIAN_FIT = 0.195

REGIMES = ("collinear", "noncollinear")
MIN_GRID_POINTS = 16  # fewest samples on a wavevector grid axis


def fwhm_to_sigma_k(fwhm_field_um: float) -> float:
    """Angular-spectrum width (1/um) of a Gaussian beam from its field FWHM (um).

    A crystal-plane field envelope exp(-x^2/(2 s_x^2)) has the angular
    spectrum exp(-k^2/(2 s_k^2)) with s_k = 1/s_x, so
    s_k = 2*sqrt(2 ln 2) / fwhm. The map is its own inverse: it also gives
    the field FWHM of an angular-spectrum width s_k.
    """
    if fwhm_field_um <= 0:
        raise ValueError(f"field FWHM must be positive, got {fwhm_field_um}")
    return GAUSSIAN_FWHM_FACTOR / fwhm_field_um


@dataclass(frozen=True)
class PhaseMatchConfig:
    """Crystal and pump constants that fix the phase-matching geometry.

    All lengths are canonical (um). ``n_signal`` is the index seen by the
    (degenerate) signal and idler waves, ``n_pump`` the index seen by the
    pump. ``dispersion``, when known, gives the downconverted waves' index
    away from degeneracy (:meth:`downconverted_index`).
    """

    crystal_length_um: float
    pump_wavelength_um: float
    n_signal: float
    n_pump: float
    regime: str = "noncollinear"
    dispersion: Optional[SellmeierCoefficients] = None

    def __post_init__(self):
        if self.crystal_length_um <= 0:
            raise ValueError(f"crystal length must be positive, got {self.crystal_length_um} um")
        if self.pump_wavelength_um <= 0:
            raise ValueError(f"pump wavelength must be positive, got {self.pump_wavelength_um} um")
        if self.n_signal <= 0 or self.n_pump <= 0:
            raise ValueError("refractive indices must be positive")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.regime == "noncollinear" and self.n_signal <= self.n_pump:
            raise ValueError(
                "noncollinear geometry needs n_signal > n_pump: the offset radicand "
                "2*n_signal*(n_signal - n_pump) must be positive "
                f"(got n_signal={self.n_signal}, n_pump={self.n_pump})"
            )

    @property
    def pump_wavevector(self) -> float:
        """2 pi n_pump / lambda_pump, in 1/um."""
        return 2.0 * math.pi * self.n_pump / self.pump_wavelength_um

    @property
    def signal_wavelength_um(self) -> float:
        """Degenerate signal wavelength, 2 * lambda_pump."""
        return 2.0 * self.pump_wavelength_um

    @property
    def signal_wavevector(self) -> float:
        """2 pi n_signal / lambda_signal at degeneracy, in 1/um."""
        return 2.0 * math.pi * self.n_signal / self.signal_wavelength_um

    def downconverted_index(self, wavelength_um: float) -> float:
        """Index seen by a signal or idler wave at a vacuum wavelength (um).

        The ordinary Sellmeier axis, inside its validity window, when the
        dispersion is known; else the constant ``n_signal``.
        """
        if self.dispersion is None:
            return self.n_signal
        self.dispersion.check_wavelength(wavelength_um)
        return self.dispersion.ordinary.index(wavelength_um)


def phase_matching_width(config: PhaseMatchConfig) -> float:
    """Width (1/um) of the Gaussian stand-in for the longitudinal sinc.

    Collinear:    sqrt(4 k_pump / (g1 L))   with the sinc(x^2) fit g1,
    noncollinear: sqrt(n_s) / (L sqrt((n_s - n_p) g2)) with the sinc(x) fit g2.
    """
    length = config.crystal_length_um
    if config.regime == "collinear":
        return math.sqrt(4.0 * config.pump_wavevector / (SINC_SQ_GAUSSIAN_FIT * length))
    dn = config.n_signal - config.n_pump
    # __post_init__ already guarantees dn > 0 for the noncollinear regime
    return math.sqrt(config.n_signal) / (length * math.sqrt(dn * SINC_GAUSSIAN_FIT))


class OffsetAngle(NamedTuple):
    offset_um_inv: float
    signal_angle_rad: float


def noncollinear_offset(config: PhaseMatchConfig) -> OffsetAngle:
    """Transverse offset K (1/um) of the ks - ki coordinate and the signal's emission angle.

    K = 2 pi sqrt(2 n_s (n_s - n_p)) / lambda_pump. The kernel puts the
    signal at +K/2, so its internal emission angle follows from
    K / 2 = k_s sin(theta); degenerate indices give K = 0.
    Raises when n_signal < n_pump (negative radicand: geometry unmatched).
    """
    dn = config.n_signal - config.n_pump
    radicand = 2.0 * config.n_signal * dn
    if radicand < 0:
        raise ValueError(
            f"offset radicand 2*n_signal*(n_signal - n_pump) = {radicand:.3e} is negative; "
            "need n_signal >= n_pump"
        )
    offset = 2.0 * math.pi * math.sqrt(radicand) / config.pump_wavelength_um
    ratio = offset / (2.0 * config.signal_wavevector)
    if ratio > 1.0:
        raise ValueError(f"offset/(2 k_signal) = {ratio:.3f} exceeds 1; no real emission angle")
    return OffsetAngle(offset, math.asin(ratio))


# ---------------------------------------------------------------------------
# dispersion model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SellmeierAxis:
    """Single-axis dispersion n^2 = a + b/(lam^2 - c) - d lam^2, lam in um."""

    a: float
    b: float
    c: float
    d: float

    def index(self, wavelength_um: float) -> float:
        lam2 = wavelength_um * wavelength_um
        if lam2 <= self.c:
            raise ValueError(f"wavelength {wavelength_um} um hits the resonance pole")
        n2 = self.a + self.b / (lam2 - self.c) - self.d * lam2
        if n2 <= 0:
            raise ValueError(f"Sellmeier form gives n^2 = {n2:.4f} <= 0 at {wavelength_um} um")
        return math.sqrt(n2)


@dataclass(frozen=True)
class SellmeierCoefficients:
    """Uniaxial crystal dispersion with a declared validity window."""

    ordinary: SellmeierAxis
    extraordinary: SellmeierAxis
    valid_range_um: tuple = (0.2, 1.1)

    def check_wavelength(self, wavelength_um: float) -> None:
        lo, hi = self.valid_range_um
        if not (lo <= wavelength_um <= hi):
            raise ValueError(
                f"wavelength {wavelength_um:.4f} um outside the dispersion model's "
                f"validity window [{lo}, {hi}] um"
            )


def refractive_indices(coeffs: SellmeierCoefficients, wavelength_um: float,
                       angle_rad: float = 0.0) -> tuple:
    """(n_ordinary, n_extraordinary(angle)) at the given vacuum wavelength.

    The extraordinary value is the angle-tuned index
    n(theta) = [cos^2/n_o^2 + sin^2/n_e^2]^(-1/2); at angle 0 it reduces to
    the ordinary principal value, at pi/2 to the extraordinary one.
    """
    coeffs.check_wavelength(wavelength_um)
    n_o = coeffs.ordinary.index(wavelength_um)
    n_e = coeffs.extraordinary.index(wavelength_um)
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    n_theta = 1.0 / math.sqrt(c * c / (n_o * n_o) + s * s / (n_e * n_e))
    return n_o, n_theta


# ---------------------------------------------------------------------------
# wavevector grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WavevectorGrid:
    """Uniform 1D grid of transverse wavevectors (1/um)."""

    k_min: float
    k_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < MIN_GRID_POINTS:
            raise ValueError(f"need at least {MIN_GRID_POINTS} grid points, got {self.n_points}")
        if not self.k_max > self.k_min:
            raise ValueError(f"empty grid: k_min={self.k_min}, k_max={self.k_max}")
        if not math.isfinite(self.k_max - self.k_min):
            raise ValueError(f"grid span [{self.k_min}, {self.k_max}] is not finite")

    @classmethod
    def centered(cls, center: float, half_span: float, n_points: int) -> "WavevectorGrid":
        return cls(center - half_span, center + half_span, n_points)

    @property
    def spacing(self) -> float:
        return (self.k_max - self.k_min) / (self.n_points - 1)

    def mirrored(self) -> "WavevectorGrid":
        """The grid of the negated nodes: a signal grid's idler partner."""
        return WavevectorGrid(-self.k_max, -self.k_min, self.n_points)

    def points(self) -> np.ndarray:
        return np.linspace(self.k_min, self.k_max, self.n_points)

    def covers(self, lo: float, hi: float) -> bool:
        return self.k_min <= lo and self.k_max >= hi
