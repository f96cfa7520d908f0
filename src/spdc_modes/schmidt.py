"""Schmidt decomposition of sampled joint amplitudes.

The discrete decomposition is an SVD of the amplitude matrix scaled by
sqrt(dks * dki) = h, the spacing of the grid and its mirror: singular
values then coincide with the Schmidt coefficients (sum of squares = 1)
and the singular vectors divided by sqrt(h) are unit-norm mode functions
under the quadrature the kernels use. The scale is applied to the
singular values, so no scaled copy of the amplitude is made.

Only the leading modes are ever kept, so the triplets come from an
adaptive randomized range finder: fixed-seed random columns, one
subspace iteration and Rayleigh-Ritz on the basis, which grows until the
weight it misses bounds every kept weight's error far below that weight,
or until it spans every direction. The Rayleigh-Ritz matrix of a
w-column basis Q is the w x w Q^H a conj(Q) for a kernel symmetric under
photon exchange (:attr:`TpaKernel.symmetric`; every Gaussian-matching
kernel here is one, whatever its pump's phases) and the w x N Q^H a for
any other. The amplitude is read only through :meth:`TpaKernel.times`,
of the kernel and of its swap, the adjoint. The test columns are the
signed 32-bit words of ``random.Random(0)``, not ``numpy.random``: the
fixed seed keeps reruns byte-identical, and no result rests on their
distribution, as the acceptance test checks the basis that they build.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import MirroredIdler, TpaKernel
from .optics import WavevectorGrid

# keep modes until this much squared weight is captured, at most MAX_MODES
ENERGY = 1.0 - 1e-6
MAX_MODES = 64
NORM_TOLERANCE = 1e-8
DISCARD_WARN = 1e-3
# randomized range finder: block columns for the kept modes and beyond them
# (the first block holds both; _orthonormal factorises blocks this wide), and
# the missed weight allowed per unit of the smallest kept weight
SKETCH_BLOCK = 16
SKETCH_OVERSAMPLE = 16
SKETCH_RESIDUAL = 1e-3


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition(MirroredIdler):
    """Truncated mode expansion F(ks,ki) = sum_m c_m u_m(ks) v_m(ki)."""

    coefficients: np.ndarray
    signal_modes: np.ndarray   # shape (n_modes, n_ks)
    idler_modes: np.ndarray    # shape (n_modes, n_ki)
    grid_s: WavevectorGrid
    discarded_weight: float

    @property
    def n_modes(self) -> int:
        return self.coefficients.size


def schmidt_decompose(kernel: TpaKernel) -> SchmidtDecomposition:
    """Decompose a normalized kernel into the Schmidt modes :func:`_mode_count` keeps;
    a truncation that discards more than DISCARD_WARN of the weight warns (UserWarning)."""
    norm = kernel.norm()
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"kernel norm is {norm:.6g}, expected 1 within {NORM_TOLERANCE}")

    coeffs, signal, vh = _leading_triplets(kernel)
    _localise_degenerate(coeffs, signal, vh, kernel.grid_s)

    # fix the SVD's arbitrary per-pair phase: the first (smallest-k) sample of
    # each signal mode reaching half its largest |value| is made real positive,
    # idler flipped in step; the largest |value| itself can tie between mirror
    # samples +-k to rounding, and a threshold well below it does not
    mag = np.abs(signal)
    pivot = np.argmax(mag >= 0.5 * mag.max(axis=1, keepdims=True), axis=1)
    phase = signal[np.arange(coeffs.size), pivot, None]
    phase /= np.abs(phase)
    signal /= phase
    del mag  # the idler below takes its place, so the rows freed on return can shrink the heap
    idler = vh * phase

    discarded = max(0.0, 1.0 - float(np.cumsum(coeffs ** 2)[-1]))
    if discarded > DISCARD_WARN:
        warnings.warn(
            f"truncation to {coeffs.size} modes discards squared weight {discarded:.3e}; "
            "the kept modes do not rebuild the kernel faithfully"
        )
    return SchmidtDecomposition(coeffs, signal, idler, kernel.grid_s, discarded)


def _localise_degenerate(coeffs: np.ndarray, signal: np.ndarray, idler: np.ndarray,
                         grid_s: WavevectorGrid) -> None:
    """Rotate each degenerate cluster onto the eigenvectors of signal position, in place.

    Any rotation of a cluster is an equally valid SVD output. The one that
    diagonalises Q = <u_m|k|u_n> gives modes of definite position, so modes
    on separate pump peaks come out separated, ordered by position; the
    idler takes the inverse rotation.
    """
    start = 0
    for end in range(1, coeffs.size + 1):
        # neighbours within (1 - ENERGY) c_0 join, so a near-degenerate band is one cluster:
        # rotating it moves the rebuilt kernel by about its spread, far inside the dropped weight
        if end < coeffs.size and coeffs[end - 1] - coeffs[end] <= (1.0 - ENERGY) * coeffs[0]:
            continue
        if end - start > 1:
            block = signal[start:end]
            q = (block.conj() * grid_s.points()) @ block.T * grid_s.spacing
            r = np.linalg.eigh(q)[1]
            signal[start:end] = r.T @ block
            idler[start:end] = r.conj().T @ idler[start:end]
        start = end


def _mode_count(s: np.ndarray) -> int:
    """Modes kept from descending singular values: as many as reach squared
    weight ENERGY, or all of them, and at most MAX_MODES."""
    n = int(np.searchsorted(np.cumsum(s ** 2), ENERGY) + 1)
    return min(n, MAX_MODES, s.size)


def _leading_triplets(kernel: TpaKernel) -> tuple:
    """(coefficients, signal modes as kept x N rows, idler modes as kept x N
    rows) of the kernel's amplitude ``a``, the modes :func:`_mode_count` keeps:
    the leading singular triplets of ``h * a``, singular vectors divided by sqrt(h).

    The adaptive randomized range finder of Halko, Martinsson & Tropp (SIAM
    Rev. 53, 217 (2011), section 4.4) keeps an orthonormal basis Q of the
    range of ``a`` and grows it: each step draws new random columns as the
    next words of one fixed-seed stream (:func:`_next_words` of
    ``random.Random(0)``), so the basis holds SKETCH_BLOCK + SKETCH_OVERSAMPLE
    columns, then twice as many at every step, at most N. The new columns get
    one subspace iteration on ``a`` with Q projected out, and their rows of
    Q^H a are formed. Q is held as the rows of Q^T, and the products of ``a``
    and of its swap a^H write into those rows or into one c x N work buffer
    for the step's c new columns, one row block at a time; :func:`_orthonormal`
    works in the same rows, one SKETCH_BLOCK-column block at a time, so beside
    Q^T a step holds the work buffer, one row block and one block's QR. A
    symmetric ``a`` = a^T has its rows in the span of its columns, so those
    rows are folded into the w x w Takagi form T = Q^H a conj(Q), whose mirror
    block is the transpose of the new rows', and a ~ Q T Q^T; any other ``a``
    keeps the w x N matrix B = Q^H a.
    The SVD of T or B gives the triplets. The basis is accepted when it holds
    SKETCH_OVERSAMPLE more vectors than the modes kept and the weight it
    misses, ||a||^2 minus that of T or B, is at most SKETCH_RESIDUAL times
    the smallest kept weight; by Weyl's inequality that weight bounds the
    error of every kept weight. At N columns, Q spans every direction and
    is accepted as is. The signal modes are then formed in the first rows of
    Q^T, which is cut down to them.
    """
    n, h = kernel.grid_s.n_points, kernel.grid_s.spacing
    # sqrt(h * h), not h: the two can differ in the last bit, and the mode tables are hashed
    scale, root_h = math.sqrt(h * h), math.sqrt(h)
    total = kernel.norm() ** 2
    stream = random.Random(0)
    # Q^T, the basis as rows, and the reduced matrix, T (w x w) or B (w x N).
    # Each step widens both once, before it forms any row block, and fills and
    # orthonormalises the new rows in place at every stage of the subspace
    # iteration: a copy held beside the step's products would raise the peak
    basis = np.empty((0, n), kernel.dtype)
    reduced = np.empty((0, 0 if kernel.symmetric else n), kernel.dtype)
    # a first block of SKETCH_BLOCK columns could never be accepted: it has
    # no room for SKETCH_OVERSAMPLE columns beyond even one kept mode
    width = min(SKETCH_BLOCK + SKETCH_OVERSAMPLE, n)
    while True:
        done = basis.shape[0]
        basis = _grown(basis, width, n)
        reduced = _grown(reduced, width, width if kernel.symmetric else n)
        new, work = basis[done:], np.empty((width - done, n), kernel.dtype)
        # the step's N x c float64 random columns, drawn into the work rows'
        # memory, so a complex kernel draws the same ones as its real copy
        draw = work.view(np.float64).reshape(-1)[:work.size]
        _next_words(stream, draw)
        kernel.times(draw.reshape(n, width - done).T, new)
        _orthonormal(basis.T, done)
        # one subspace iteration: a^H new, the swap's product, then a times its basis
        _orthonormal(kernel.swapped.times(new, work).T, 0)
        kernel.times(work, new)
        _orthonormal(basis.T, done)
        # the new rows of B = Q^H a, or of T = B conj(Q), from a^H Q conjugated in place
        if kernel.symmetric:
            np.matmul(kernel.swapped.times(new, work), basis.T, out=reduced[done:])
            np.conjugate(reduced[done:], out=reduced[done:])
            reduced[:done, done:] = reduced[done:, :done].T
        else:
            np.conjugate(kernel.swapped.times(new, reduced[done:]), out=reduced[done:])
        # the work rows go before the SVD and before the next step widens the basis
        del new, work, draw
        ur, s, vh = np.linalg.svd(reduced, full_matrices=False)
        s *= scale
        residual = total - float(np.sum(s ** 2))
        kept = _mode_count(s)
        if width == n or (kept + SKETCH_OVERSAMPLE <= width
                          and residual <= SKETCH_RESIDUAL * s[kept - 1] ** 2):
            idler = vh[:kept] @ basis if kernel.symmetric else vh[:kept]
            # the signal modes (Q U)^T, formed in Q^T's own first rows one
            # column block at a time; no view of Q^T is alive, so the rows
            # beyond the modes are freed in place (a profiler's reference
            # would fail resize's reference check)
            for j in range(0, n, SKETCH_BLOCK):
                basis[:kept, j:j + SKETCH_BLOCK] = ur[:, :kept].T @ basis[:, j:j + SKETCH_BLOCK]
            basis.resize((kept, n), refcheck=False)
            # divided in place: a divided copy beside the modes would raise the peak
            basis /= root_h
            idler /= root_h
            return s[:kept], basis, idler
        width = min(2 * width, n)


def _next_words(stream: random.Random, out: np.ndarray) -> None:
    """Fill the 1-D ``out`` with the stream's next signed 32-bit words, 4096 at a time."""
    for start in range(0, out.size, 4096):
        part = out[start:start + 4096]
        part[:] = np.frombuffer(stream.randbytes(4 * part.size), "<i4")


def _grown(a: np.ndarray, rows: int, columns: int) -> np.ndarray:
    """``a`` in the top-left corner of an unset ``rows`` x ``columns`` array."""
    out = np.empty((rows, columns), a.dtype)
    out[:a.shape[0], :a.shape[1]] = a
    return out


def _orthonormal(y: np.ndarray, done: int) -> np.ndarray:
    """y, its columns from ``done`` on overwritten by an orthonormal basis of
    their span with the orthonormal columns before them projected out.

    Reorthogonalised block classical Gram-Schmidt (BCGS2; Barlow &
    Smoktunowicz, Numer. Math. 123, 395 (2013)): each block of SKETCH_BLOCK
    columns has every column before it projected out in place, then is
    replaced by the Q of its Householder QR, in two passes, so rounding
    leaves no part along those columns; a first block with none before it
    has nothing to project out, and one pass is enough. Two passes keep the
    columns orthonormal to O(u) while y's condition number stays well below
    1/u, with u the unit roundoff. Beside y, one block's QR is the most held
    at a time.
    """
    for start in range(done, y.shape[1], SKETCH_BLOCK):
        block, before = y[:, start:start + SKETCH_BLOCK], y[:, :start]
        for _ in range(2 if start else 1):
            block -= before @ (before.conj().T @ block)
            block[:] = np.linalg.qr(block)[0]
    return y


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
