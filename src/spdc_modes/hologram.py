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

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exports
from .detection import ScanSpectrum, fwhm_of
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


@dataclass(frozen=True, eq=False)
class FieldProfile1D:
    """Complex field sampled on a transverse coordinate axis (um)."""

    coordinates_um: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        if self.coordinates_um.ndim != 1 or self.coordinates_um.shape != self.amplitude.shape:
            raise ValueError("coordinates and amplitude must be matching 1D arrays")


def pump_field(params: MultiPeakParams, x_um: np.ndarray) -> FieldProfile1D:
    """Crystal-plane pump field, peak-normalized to max |E| = 1.

    A Gaussian envelope of angular-spectrum width ``widths.sigma_pump`` times
    a comb oscillating at the pump peaks' sum-coordinate centers.
    """
    x = np.asarray(x_um, dtype=float)
    comb = np.zeros(x.shape, dtype=complex)
    for w, f in zip(params.weights(), params.pump_centers()):
        comb += w * np.exp(1j * f * x)
    field = comb * np.exp(-(x ** 2) * params.widths.sigma_pump ** 2 / 2.0)
    peak = np.abs(field).max()
    if peak == 0:
        raise ValueError("pump field vanished; check the parameters")
    if not np.isfinite(peak):
        raise ValueError("pump field is not finite; check the parameters")
    return FieldProfile1D(x, field / peak)


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
        if self.width_px < 16 or self.height_px < 1:
            raise ValueError(f"raster {self.width_px}x{self.height_px} is too small")
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


@dataclass(frozen=True, eq=False)
class HologramImage:
    """8-bit phase raster plus the SLM settings needed to replay it."""

    phase_levels: np.ndarray   # uint8, shape (height_px, width_px)
    settings: HologramSettings

    def __post_init__(self):
        shape = (self.settings.height_px, self.settings.width_px)
        if self.phase_levels.dtype != np.uint8 or self.phase_levels.shape != shape:
            raise ValueError(f"phase_levels must be a uint8 array of the raster shape {shape}")


def _resample(field: FieldProfile1D, x_um: np.ndarray) -> np.ndarray:
    """Complex-linear interpolation of ``field`` at ``x_um``, zero outside its support."""
    xf = field.coordinates_um
    return (np.interp(x_um, xf, field.amplitude.real, left=0.0, right=0.0)
            + 1j * np.interp(x_um, xf, field.amplitude.imag, left=0.0, right=0.0))


def phase_map(target: FieldProfile1D, settings: HologramSettings) -> np.ndarray:
    """Continuous encoding phase (radians in [0, 2 pi)) at every pixel column.

    The target is resampled onto the pixel grid (complex-linear, zero
    outside its support) and peak-normalized before encoding.
    """
    x_um = settings.pixel_coordinates()
    if np.any(np.diff(target.coordinates_um) <= 0):
        raise ValueError("target coordinates must be strictly increasing")
    field = _resample(target, x_um)
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


def encode_hologram(target: FieldProfile1D, settings: HologramSettings) -> HologramImage:
    """Raster a 1D target field into a full-frame phase hologram.

    The profile runs along the width; every row repeats it.
    """
    row = quantize_phase(phase_map(target, settings))
    levels = np.broadcast_to(row, (settings.height_px, settings.width_px)).copy()
    return HologramImage(levels, settings)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def first_order(phase: np.ndarray, settings: HologramSettings,
                order_center: float = 1.0) -> FieldProfile1D:
    """Demodulated first diffraction order of one raster row's phase (radians).

    The phase drives a flat unit input beam; the spectral window
    spans half a grating frequency either side of the carrier, and the
    carrier is divided out so the result sits at baseband, comparable to
    the encoding target. ``order_center`` picks a different diffraction
    order (0 gives the undiffracted light) for negative controls.
    """
    phase = np.asarray(phase, dtype=float)
    if phase.ndim != 1:
        raise ValueError("phase must be a 1D profile")
    pitch = settings.pixel_pitch_um
    x = settings.pixel_coordinates()
    spectrum = np.fft.fft(np.exp(1j * phase))
    freqs = np.fft.fftfreq(phase.size, d=pitch)
    grating_freq = 1.0 / (settings.grating_period_px * pitch)
    center = order_center * grating_freq
    window = (freqs > center - 0.5 * grating_freq) & (freqs < center + 0.5 * grating_freq)
    field = np.fft.ifft(spectrum * window)
    return FieldProfile1D(x, field * np.exp(-2j * math.pi * center * x))


def simulate_first_order(holo: HologramImage, order_center: float = 1.0) -> FieldProfile1D:
    """Field diffracted into the first order of the raster's first row."""
    phase = holo.phase_levels[0].astype(float) * (2.0 * math.pi / PHASE_LEVELS)
    return first_order(phase, holo.settings, order_center)


def field_overlap(a: FieldProfile1D, b: FieldProfile1D) -> float:
    """Normalized complex overlap |<a|b>| on a's coordinate grid, in [0, 1]."""
    eb = _resample(b, a.coordinates_um)
    na, nb = np.linalg.norm(a.amplitude), np.linalg.norm(eb)
    if na == 0 or nb == 0:
        return 0.0
    return float(abs(np.vdot(a.amplitude, eb)) / (na * nb))


def amplitude_overlap(a: FieldProfile1D, b: FieldProfile1D) -> float:
    """:func:`field_overlap` of the |E| profiles, blind to phase."""
    return field_overlap(*(FieldProfile1D(f.coordinates_um, np.abs(f.amplitude)) for f in (a, b)))


def envelope_of(field: FieldProfile1D, split_frequency: float) -> FieldProfile1D:
    """Low-pass magnitude envelope: keep content strictly below split_frequency (1/um).

    ``split_frequency`` is in angular units (rad/um) to match wavevector
    conventions elsewhere; pass half the comb frequency to strip the
    multi-peak beating and keep the envelope.
    """
    x = field.coordinates_um
    n = x.size
    d = np.diff(x)
    if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
        raise ValueError("envelope extraction needs a uniform coordinate grid")
    # rectify before filtering: |E| is immune to any residual phase ripple,
    # and its beating harmonics stay at multiples of the comb frequency
    spectrum = np.fft.fft(np.abs(field.amplitude))
    freqs = np.fft.fftfreq(n, d=d[0]) * 2.0 * math.pi
    spectrum[np.abs(freqs) >= split_frequency] = 0.0
    return FieldProfile1D(x, np.fft.ifft(spectrum))


def envelope_fwhm(field: FieldProfile1D, split_frequency: Optional[float] = None) -> float:
    """FWHM (um) of the magnitude envelope of a (possibly modulated) field."""
    env = envelope_of(field, split_frequency) if split_frequency else field
    return fwhm_of(ScanSpectrum(env.coordinates_um, np.abs(env.amplitude)))


# ---------------------------------------------------------------------------
# raster I/O
# ---------------------------------------------------------------------------

def pgm_bytes(holo: HologramImage) -> bytes:
    """Binary PGM (P5, maxval 255) encoding of the phase raster."""
    h, w = holo.phase_levels.shape
    header = f"P5 {w} {h} 255\n".encode("ascii")
    return header + holo.phase_levels.tobytes()


def export_pgm(path: str, holo: HologramImage) -> None:
    """Write the raster as binary PGM, atomically."""
    try:
        exports.atomic_write_bytes(path, pgm_bytes(holo))
    except OSError as exc:
        raise OSError(f"writing hologram to {path}: {exc}") from exc


def parse_pgm(data: bytes) -> np.ndarray:
    """Levels array from a binary PGM produced by :func:`pgm_bytes`."""
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m:
        raise ValueError("not a binary PGM header")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise ValueError(f"expected maxval 255, got {maxval}")
    payload = data[m.end():]
    if len(payload) != w * h:
        raise ValueError(f"payload holds {len(payload)} bytes, expected {w * h}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
