"""Oracles used by the tests only.

The readers parse what :mod:`spdc_modes.exports` and
:mod:`spdc_modes.hologram` write, independently of the writers, so a test
can check a file's content; :func:`pgm_bytes` builds a whole PGM file in
memory, the reference for the streamed ``export_pgm``. :func:`analytic_double_gaussian` gives the
closed-form Schmidt weights, Schmidt number and mode scale of the
double-Gaussian amplitude, the Hermite-Gauss functions its modes, and
:func:`reconstruct_kernel` sums a decomposition back into a kernel, and
:func:`joint_array` builds the joint array of a kernel's or intensity's
profile pair from its definition, the reference for the sliding windows
that read it.
:func:`linear_crosstalk` is the direct overlap that the log-domain
crosstalk is checked against, and :func:`pump_spectrum_from_field` turns a
crystal-plane pump field into the sampled spectrum of ``build_from_pump``.
:func:`recorded` returns a call's result with the messages of every
warning it raised.
"""

import math
import re
import warnings
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from spdc_modes.kernel import ProfilePair
from spdc_modes.optics import WavevectorGrid
from spdc_modes.schmidt import MAX_MODES, SchmidtDecomposition

# warn when the grid holds less than this much of a mode's continuum energy
GRID_ENERGY_FLOOR = 1.0 - 1e-6


def recorded(call, *args):
    """(call(*args), the message of each warning it raised, in order), whatever
    the warning filters."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [str(w.message) for w in caught]


def read_csv(path: str) -> Tuple[List[str], np.ndarray]:
    """(header names, 2D float array) from a CSV written by the exports."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def pgm_bytes(levels: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255) encoding of a uint8 phase raster, built
    whole: the bytes ``hologram.export_pgm`` streams row by row."""
    h, w = levels.shape
    return f"P5 {w} {h} 255\n".encode("ascii") + np.ascontiguousarray(levels).tobytes()


def parse_pgm(data: bytes) -> np.ndarray:
    """Levels array from a binary PGM such as :func:`pgm_bytes` builds."""
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


@dataclass(frozen=True, eq=False)
class AnalyticModes:
    schmidt_number: float
    eigenvalues: np.ndarray       # squared coefficients, descending
    mode_scale: float             # Hermite-Gauss scale in 1/um


def analytic_double_gaussian(sigma_pump: float, sigma_match: float) -> AnalyticModes:
    """Closed-form Schmidt data for the centered double-Gaussian amplitude.

    With a = sigma_pump, b = sigma_match and mu = ((b - a) / (b + a))^2,
    orders m < MAX_MODES have eigenvalues (1 - mu) mu^m, the Schmidt number
    is (a^2 + b^2) / (2 a b), and modes are Hermite-Gauss with scale
    sqrt(a b / 2); the idler set is the mirror image of the signal set.
    """
    a, b = sigma_pump, sigma_match
    root = (b - a) / (b + a)
    mu = root * root
    eigenvalues = (1.0 - mu) * mu ** np.arange(MAX_MODES)
    return AnalyticModes((a * a + b * b) / (2.0 * a * b), eigenvalues, math.sqrt(a * b / 2.0))


def reconstruct_kernel(dec: SchmidtDecomposition) -> np.ndarray:
    """Sum the truncated expansion back into an amplitude array."""
    return (dec.signal_modes.T * dec.coefficients) @ dec.idler_modes


def joint_array(pair: ProfilePair) -> np.ndarray:
    """The N x N array at_sums[i + j] * at_differences[i - j + N - 1] that the
    two profiles of ``pair`` stand for, built by index arithmetic."""
    n = pair.grid_s.n_points
    i, j = np.indices((n, n))
    return pair.at_sums[i + j] * pair.at_differences[i - j + n - 1]


def hermite_gauss(order: int, scale: float, grid: WavevectorGrid,
                  center: float = 0.0) -> np.ndarray:
    """Unit-quadrature-norm Hermite-Gauss function on a grid.

    Continuum form: psi_n(k) = N_n H_n(xi) exp(-xi^2/2), xi = (k-center)/scale.
    Built by the stable normalized recurrence; a grid that captures less
    than GRID_ENERGY_FLOOR of the continuum mode energy triggers a warning.
    The returned samples are renormalized to exactly unit quadrature norm.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    xi = (grid.points() - center) / scale
    psi_prev = np.pi ** -0.25 * np.exp(-0.5 * xi ** 2)
    if order == 0:
        psi = psi_prev
    else:
        psi = math.sqrt(2.0) * xi * psi_prev
        for n in range(2, order + 1):
            psi, psi_prev = (math.sqrt(2.0 / n) * xi * psi
                             - math.sqrt((n - 1) / n) * psi_prev), psi
    # psi is unit-norm in xi over the real line, so the quadrature sum
    # measures how much of the mode the grid actually holds
    captured = np.sum(psi ** 2) * grid.spacing / scale
    if captured < GRID_ENERGY_FLOOR:
        warnings.warn(
            f"grid holds only {captured:.8f} of Hermite-Gauss order {order}'s energy; "
            "widen or refine it",
            stacklevel=2,
        )
    norm = math.sqrt(np.sum(psi ** 2) * grid.spacing)
    if norm == 0:
        raise ValueError("mode vanished on this grid; widen it")
    return psi / norm


def double_gaussian_modes(sigma_pump: float, sigma_match: float, m_max: int,
                          grid: WavevectorGrid) -> Tuple[np.ndarray, np.ndarray]:
    """(signal, idler) closed-form Schmidt modes of the centered double
    Gaussian: Hermite-Gauss functions of :func:`analytic_double_gaussian`'s
    scale, one row per mode."""
    scale = analytic_double_gaussian(sigma_pump, sigma_match).mode_scale
    signal = np.stack([hermite_gauss(n, scale, grid) for n in range(m_max)])
    # pair signs follow the sign of the Mehler parameter (a-b)/(a+b): for
    # sigma_match > sigma_pump the idler set is the mirror image,
    # psi_n(-k) = (-1)^n psi_n(k); otherwise it matches the signal set
    signs = (-1.0) ** np.arange(m_max) if sigma_match > sigma_pump else np.ones(m_max)
    return signal, signal * signs[:, None]


def linear_crosstalk(modes: np.ndarray, grid: WavevectorGrid) -> np.ndarray:
    """Normalized squared overlaps X_mn = |<u_m|u_n>|^2 / (<u_m|u_m> <u_n|u_n>),
    with <u|v> the trapezoid integral of u* v, summed in the linear domain.

    Rows of intensities give the intensity overlap that
    ``detection.crosstalk_matrix`` computes from their logs; rows of
    (possibly complex) amplitudes give the amplitude overlap.
    """
    modes = np.asarray(modes)
    w = np.full(grid.n_points, grid.spacing)
    w[0] = w[-1] = grid.spacing / 2.0
    gram = (modes.conj() * w) @ modes.T
    diag = np.real(np.diag(gram))
    if np.any(diag <= 0):
        raise ValueError("every mode needs positive norm")
    return np.abs(gram) ** 2 / (diag[:, None] * diag[None, :])


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
