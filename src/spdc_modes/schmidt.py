"""Schmidt decomposition of sampled joint amplitudes.

The discrete decomposition is an SVD of the amplitude matrix scaled by
sqrt(dks * dki) = h, the spacing of the grid and its mirror: singular
values then coincide with the Schmidt coefficients (sum of squares = 1)
and the singular vectors divided by sqrt(h) are unit-norm mode functions
under the quadrature the kernels use. The scale is applied to the
singular values, so the amplitude is decomposed in place, never copied.

Only the leading modes are ever kept, so the triplets come from a
randomized range finder: a fixed-seed Gaussian sketch, one subspace
iteration and Rayleigh-Ritz on the block, grown until the weight the
block misses bounds every kept weight's error far below that weight. The
dense SVD remains for a kernel whose kept modes do not fit a block of
half its size. The fixed seed keeps reruns byte-identical.

For the double-Gaussian amplitude the decomposition is known in closed
form (Gaussian kernel diagonalized by Hermite-Gauss functions);
:func:`analytic_double_gaussian` gives its weights, Schmidt number and
mode scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import MirroredIdler, TpaKernel
from .optics import PumpWidths, WavevectorGrid

# keep modes until this much squared weight is captured, at most MAX_MODES
ENERGY = 1.0 - 1e-6
MAX_MODES = 64
# singular values below this fraction of the largest are numerical noise
SV_FLOOR = 1e-12
NORM_TOLERANCE = 1e-8
DISCARD_WARN = 1e-3
# randomized range finder: first block size, block columns beyond the kept
# modes, and the missed weight allowed per unit of the smallest kept weight
SKETCH_BLOCK = 16
SKETCH_OVERSAMPLE = 16
SKETCH_RESIDUAL = 1e-3
# coefficients within this relative distance of a cluster's first form one
# degenerate cluster, whose modes the SVD leaves free to rotate among themselves
DEGENERATE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition(MirroredIdler):
    """Truncated mode expansion F(ks,ki) = sum_m c_m u_m(ks) v_m(ki)."""

    coefficients: np.ndarray
    signal_modes: np.ndarray   # shape (n_modes, n_ks)
    idler_modes: np.ndarray    # shape (n_modes, n_ki)
    grid_s: WavevectorGrid
    discarded_weight: float
    warnings: tuple = ()

    @property
    def n_modes(self) -> int:
        return self.coefficients.size


def schmidt_decompose(kernel: TpaKernel) -> SchmidtDecomposition:
    """Decompose a normalized kernel into its Schmidt modes.

    Modes are kept up to cumulative weight ENERGY, at most MAX_MODES.
    """
    norm = kernel.norm()
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"kernel norm is {norm:.6g}, expected 1 within {NORM_TOLERANCE}")

    h = kernel.grid_s.spacing
    # sqrt(h * h), not h: the two can differ in the last bit, and the mode tables are hashed
    u, s, vh = _leading_triplets(kernel.amplitude, math.sqrt(h * h))
    n = _mode_count(s)

    coeffs = s[:n]
    signal = (u[:, :n] / math.sqrt(h)).T.copy()
    idler = vh[:n, :] / math.sqrt(h)
    _localise_degenerate(coeffs, signal, idler, kernel.grid_s)

    # fix the SVD's arbitrary per-pair phase: the first (smallest-k) sample of
    # each signal mode reaching half its largest |value| is made real positive,
    # idler flipped in step; the largest |value| itself can tie between mirror
    # samples +-k to rounding, and a threshold well below it does not
    for m in range(n):
        mag = np.abs(signal[m])
        j = int(np.argmax(mag >= 0.5 * mag.max()))
        pivot = signal[m, j]
        if pivot != 0:
            phase = pivot / abs(pivot)
            signal[m] /= phase
            idler[m] *= phase

    discarded = max(0.0, 1.0 - float(np.cumsum(coeffs ** 2)[-1]))
    warns = list(kernel.warnings)
    if discarded > DISCARD_WARN:
        warns.append(
            f"truncation to {n} modes discards squared weight {discarded:.3e}; "
            "the kept modes do not rebuild the kernel faithfully"
        )
    return SchmidtDecomposition(coeffs, signal, idler, kernel.grid_s, discarded, tuple(warns))


def _localise_degenerate(coeffs: np.ndarray, signal: np.ndarray, idler: np.ndarray,
                         grid_s: WavevectorGrid) -> None:
    """Rotate each degenerate cluster onto the eigenvectors of signal position, in place.

    Any rotation of a cluster is an equally valid SVD output. The one that
    diagonalises Q = <u_m|k|u_n> gives modes of definite position, so modes
    on separate pump peaks come out separated, ordered by position. The
    idler takes the inverse rotation, which leaves F unchanged up to the
    coefficients' spread within the cluster (at most DEGENERATE_RTOL).
    """
    start = 0
    for end in range(1, coeffs.size + 1):
        if end < coeffs.size and coeffs[start] - coeffs[end] <= DEGENERATE_RTOL * coeffs[start]:
            continue
        if end - start > 1:
            block = signal[start:end]
            q = (block.conj() * grid_s.points()) @ block.T * grid_s.spacing
            r = np.linalg.eigh(q)[1]
            signal[start:end] = r.T @ block
            idler[start:end] = r.conj().T @ idler[start:end]
        start = end


def _mode_count(s: np.ndarray) -> int:
    """Modes kept from descending, floored singular values."""
    n = int(np.searchsorted(np.cumsum(s ** 2), ENERGY) + 1)
    return min(n, MAX_MODES, s.size)


def _floored(u: np.ndarray, s: np.ndarray, vh: np.ndarray) -> tuple:
    keep = s > SV_FLOOR * s[0]
    return u[:, keep], s[keep], vh[keep, :]


def _leading_triplets(a: np.ndarray, scale: float) -> tuple:
    """Singular triplets of ``scale * a`` above the floor, as many as :func:`_mode_count` keeps.

    A randomized range finder with one subspace iteration (Halko, Martinsson
    & Tropp, SIAM Rev. 53, 217 (2011)) sketches ``a`` with a fixed-seed
    Gaussian block; Rayleigh-Ritz on the block gives the triplets. A block
    is accepted when it holds SKETCH_OVERSAMPLE more vectors than the modes
    kept and the weight it misses, ||a||^2 - ||Q^H a||^2, is at most
    SKETCH_RESIDUAL times the smallest kept weight; by Weyl's inequality
    that weight bounds the error of every kept weight. Otherwise the block
    doubles, restarting from the same seed, and past half the matrix size
    the dense SVD runs instead. ``scale`` multiplies the singular values
    only, before the energy target reads them.
    """
    total = float(np.vdot(a, a).real) * scale * scale
    block = SKETCH_BLOCK
    while block <= min(a.shape) / 2:
        omega = np.random.default_rng(0).standard_normal((a.shape[1], block))
        q = np.linalg.qr(a @ omega)[0]
        # a^H q, formed as (q^H a)^H so a complex a is never conjugated whole
        q = np.linalg.qr((q.conj().T @ a).conj().T)[0]
        q = np.linalg.qr(a @ q)[0]
        ub, s, vh = np.linalg.svd(q.conj().T @ a, full_matrices=False)
        s *= scale
        residual = total - float(np.sum(s ** 2))
        u, s, vh = _floored(q @ ub, s, vh)
        n = _mode_count(s)
        if n + SKETCH_OVERSAMPLE <= block and residual <= SKETCH_RESIDUAL * s[n - 1] ** 2:
            return u, s, vh
        block *= 2
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return _floored(u, s * scale, vh)


@dataclass(frozen=True)
class ModeMetrics:
    schmidt_number: float
    purity: float
    entropy_bits: float


def schmidt_number(dec: SchmidtDecomposition) -> ModeMetrics:
    """K = 1 / sum c^4 for unit-sum weights, plus purity and entropy."""
    lam = dec.coefficients ** 2
    total = lam.sum()
    if total <= 0:
        raise ValueError("decomposition carries no weight")
    lam = lam / total
    inv_participation = float(np.sum(lam ** 2))
    k = 1.0 / inv_participation
    nz = lam[lam > 0]
    entropy = float(-np.sum(nz * np.log2(nz))) + 0.0  # avoid -0.0 for a pure state
    return ModeMetrics(k, inv_participation, entropy)


def largest_window_leak(dec: SchmidtDecomposition, centers: np.ndarray, width: float) -> float:
    """Largest share of any signal mode's intensity outside its own window.

    The windows are ``width`` wide around ``centers``; a mode's own window
    is the one that holds most of its intensity.
    """
    k = dec.grid_s.points()
    outside = np.abs(k - np.asarray(centers)[:, None]) > width / 2.0
    intensity = np.abs(dec.signal_modes) ** 2
    shares = (intensity @ outside.T) / intensity.sum(axis=1)[:, None]
    return float(shares.min(axis=1).max())


@dataclass(frozen=True, eq=False)
class AnalyticModes:
    schmidt_number: float
    eigenvalues: np.ndarray       # squared coefficients, descending
    mode_scale: float             # Hermite-Gauss scale in 1/um


def analytic_double_gaussian(widths: PumpWidths, m_max: int = 32) -> AnalyticModes:
    """Closed-form Schmidt data for the centered double-Gaussian amplitude.

    With a = sigma_pump, b = sigma_match:
    mu = ((b - a) / (b + a))^2, eigenvalues (1 - mu) mu^m, Schmidt number
    (a^2 + b^2) / (2 a b), and modes are Hermite-Gauss with scale
    sqrt(a b / 2); the idler set is the mirror image of the signal set.
    """
    a, b = widths.sigma_pump, widths.sigma_match
    root = (b - a) / (b + a)
    mu = root * root
    eigenvalues = (1.0 - mu) * mu ** np.arange(m_max)
    return AnalyticModes((a * a + b * b) / (2.0 * a * b), eigenvalues, math.sqrt(a * b / 2.0))
