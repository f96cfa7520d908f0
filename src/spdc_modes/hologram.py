"""Phase-only holograms that carve a structured pump out of a flat beam.

The encoding writes a blazed grating whose local modulation depth M sets the
diffracted amplitude and whose local offset sets the phase (Bolduc et al.,
Opt. Lett. 38, 3546 (2013)):

    phase(x) = M * mod(2 pi x / period + arg(E) - pi M, 2 pi)
    M = 1 + asinc(A) / pi,   sinc(asinc(A)) = A,  asinc: [0,1] -> [-pi, 0]

The first diffraction order carries amplitude A and phase arg(E): the -pi M
term cancels the order's amplitude-dependent phase pi M. Rasters are 8-bit
phase levels on a fixed pixel pitch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exports
from .detection import Profile1D, fwhm_of
from .kernel import MultiPeakParams

PHASE_LEVELS = 256
MIN_GRATING_PERIOD_PX = 3

# dense inversion table for sinc on [-pi, 0], where it rises 0 -> 1
_ASINC_Y = np.linspace(-math.pi, 0.0, 8193)
_ASINC_A = np.sinc(_ASINC_Y / math.pi)


def inverse_sinc(a: np.ndarray) -> np.ndarray:
    """Solve sinc(y) = a for y in [-pi, 0], elementwise; a clipped to [0, 1]."""
    a = np.clip(np.asarray(a, dtype=float), 0.0, 1.0)
    return np.interp(a, _ASINC_A, _ASINC_Y)


def pump_field(params: MultiPeakParams, x_um: np.ndarray) -> Profile1D:
    """Crystal-plane pump field, peak-normalized to max |E| = 1.

    A Gaussian envelope of angular-spectrum width ``params.sigma_pump`` times
    a comb oscillating at the pump peaks' sum-coordinate centers.
    """
    x = np.asarray(x_um, dtype=float)
    comb = np.zeros(x.shape, dtype=complex)
    for a, f in zip(params.amplitudes, params.pump_centers()):
        comb += a * np.exp(1j * f * x)
    field = comb * np.exp(-(x ** 2) * params.sigma_pump ** 2 / 2.0)
    peak = np.abs(field).max()
    if peak == 0:
        raise ValueError("pump field vanished; check the parameters")
    if not np.isfinite(peak):
        raise ValueError("pump field is not finite; check the parameters")
    return Profile1D(x, field / peak)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HologramSettings:
    """SLM raster, its blazed carrier, and the crystal-to-SLM magnification."""

    width_px: int = 1920
    height_px: int = 1080
    pixel_pitch_um: float = 8.0
    grating_period_px: float = 6.0
    magnification: float = 20.0

    def __post_init__(self):
        for name, least in (("width_px", 16), ("height_px", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} = {getattr(self, name)} is too small for a raster; "
                                 f"need at least {least}")
        if self.pixel_pitch_um <= 0:
            raise ValueError(f"pixel pitch must be positive, got {self.pixel_pitch_um}")
        if self.grating_period_px < MIN_GRATING_PERIOD_PX:
            raise ValueError(
                f"grating period {self.grating_period_px} px is below {MIN_GRATING_PERIOD_PX} px; "
                "the first order would alias into its neighbours"
            )
        if self.magnification <= 0:
            raise ValueError(f"magnification must be positive, got {self.magnification}")

    def pixel_coordinates(self) -> np.ndarray:
        """Centered x coordinate (um) of every pixel column."""
        return (np.arange(self.width_px) - (self.width_px - 1) / 2.0) * self.pixel_pitch_um

    def first_order_band(self) -> tuple:
        """(carrier, half width) in SLM cycles/um of the band :func:`first_order`
        keeps: the blazed carrier, and half a carrier frequency either side."""
        carrier = 1.0 / (self.grating_period_px * self.pixel_pitch_um)
        return carrier, 0.5 * carrier


@dataclass(frozen=True, eq=False)
class HologramImage:
    """8-bit phase raster plus the SLM settings needed to replay it; that of
    :func:`encode_hologram` is one read-only row broadcast to the frame."""

    phase_levels: np.ndarray   # uint8, shape (height_px, width_px)
    settings: HologramSettings

    def __post_init__(self):
        shape = (self.settings.height_px, self.settings.width_px)
        if self.phase_levels.dtype != np.uint8 or self.phase_levels.shape != shape:
            raise ValueError(f"phase_levels must be a uint8 array of the raster shape {shape}")


def phase_map(target: np.ndarray, settings: HologramSettings) -> np.ndarray:
    """Continuous encoding phase (radians in [0, 2 pi)) at every pixel column.

    ``target`` is the complex field at :meth:`HologramSettings.pixel_coordinates`,
    one sample per column; it is peak-normalized before encoding.
    """
    field = np.asarray(target)
    if field.shape != (settings.width_px,):
        raise ValueError(f"target has shape {field.shape}, not one sample per pixel column "
                         f"({settings.width_px},)")
    x_um = settings.pixel_coordinates()
    mag = np.abs(field)
    peak = mag.max()
    if peak == 0:
        raise ValueError("target field is zero over the raster")
    amp = mag / peak
    depth = 1.0 + inverse_sinc(amp) / math.pi
    ramp = np.mod(2.0 * math.pi * x_um / (settings.grating_period_px * settings.pixel_pitch_um)
                  + np.angle(field) - math.pi * depth, 2.0 * math.pi)
    return depth * ramp


def quantize_phase(phase: np.ndarray) -> np.ndarray:
    """Map radians to 8-bit levels, wrapping 2 pi back onto level 0."""
    levels = np.round(phase * (PHASE_LEVELS / (2.0 * math.pi)))
    return (levels.astype(np.int64) % PHASE_LEVELS).astype(np.uint8)


def encode_hologram(target: np.ndarray, settings: HologramSettings) -> HologramImage:
    """Raster a target field, one sample per pixel column, into a full-frame
    phase hologram; every row repeats it, as one read-only row broadcast."""
    row = quantize_phase(phase_map(target, settings))
    return HologramImage(np.broadcast_to(row, (settings.height_px, settings.width_px)), settings)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def first_order(phase: np.ndarray, settings: HologramSettings) -> Profile1D:
    """Demodulated first diffraction order of one raster row's phase (radians).

    The phase drives a flat unit input beam; the spectral window is
    :meth:`HologramSettings.first_order_band`, and the carrier is divided
    out so the result sits at baseband, comparable to the encoding target.
    """
    phase = np.asarray(phase, dtype=float)
    if phase.ndim != 1:
        raise ValueError("phase must be a 1D profile")
    x = settings.pixel_coordinates()
    spectrum = np.fft.fft(np.exp(1j * phase))
    freqs = np.fft.fftfreq(phase.size, d=settings.pixel_pitch_um)
    carrier, half = settings.first_order_band()
    field = np.fft.ifft(spectrum * ((freqs > carrier - half) & (freqs < carrier + half)))
    return Profile1D(x, field * np.exp(-2j * math.pi * carrier * x))


def simulate_first_order(holo: HologramImage) -> Profile1D:
    """Field diffracted into the first order of the raster's first row."""
    phase = holo.phase_levels[0].astype(float) * (2.0 * math.pi / PHASE_LEVELS)
    return first_order(phase, holo.settings)


def field_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized complex overlap |<a|b>| of two fields on the same samples, in [0, 1]."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(abs(np.vdot(a, b)) / (na * nb))


def amplitude_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`field_overlap` of the |E| profiles, blind to phase."""
    return field_overlap(np.abs(a), np.abs(b))


def envelope_of(field: Profile1D, split_frequency: float) -> Profile1D:
    """Low-pass magnitude envelope: keep content strictly below split_frequency (1/um).

    ``split_frequency`` is in angular units (rad/um) to match wavevector
    conventions elsewhere; pass half the comb frequency to strip the
    multi-peak beating and keep the envelope.
    """
    x = field.x
    n = x.size
    d = np.diff(x)
    if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
        raise ValueError("envelope extraction needs a uniform coordinate grid")
    # rectify before filtering: |E| is immune to any residual phase ripple,
    # and its beating harmonics stay at multiples of the comb frequency
    spectrum = np.fft.fft(np.abs(field.values))
    freqs = np.fft.fftfreq(n, d=d[0]) * 2.0 * math.pi
    spectrum[np.abs(freqs) >= split_frequency] = 0.0
    return Profile1D(x, np.fft.ifft(spectrum))


def envelope_fwhm(field: Profile1D, split_frequency: Optional[float] = None) -> float:
    """FWHM (um) of the magnitude envelope of a (possibly modulated) field."""
    env = envelope_of(field, split_frequency) if split_frequency else field
    return fwhm_of(Profile1D(env.x, np.abs(env.values)))


# ---------------------------------------------------------------------------
# raster I/O
# ---------------------------------------------------------------------------

def export_pgm(path: str, holo: HologramImage) -> None:
    """Write the raster as binary PGM (P5, maxval 255), one row at a time."""
    h, w = holo.phase_levels.shape
    exports.atomic_write_bytes(path, itertools.chain(
        [f"P5 {w} {h} 255\n".encode("ascii")], (row.tobytes() for row in holo.phase_levels)))
