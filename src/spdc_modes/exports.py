"""File outputs: plain CSV with full-precision floats, written atomically.

Every writer goes through a temp file in the destination directory plus
os.replace, so a crashed run never leaves a half-written table behind.
Floats are printed with 17 significant digits (lossless for float64).
"""

from __future__ import annotations

import io
import os
import tempfile
from typing import List, Sequence, Tuple

import numpy as np
import yaml

FLOAT_FMT = "%.16e"


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp creates 0600; give the file the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _table_text(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    arr = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    buf = io.StringIO()
    np.savetxt(buf, arr, fmt=FLOAT_FMT, delimiter=",",
               header=",".join(header), comments="")
    return buf.getvalue()


def write_table_csv(path: str, header: Sequence[str],
                    columns: Sequence[np.ndarray]) -> None:
    atomic_write_text(path, _table_text(header, columns))


def read_csv(path: str) -> Tuple[List[str], np.ndarray]:
    """(header names, 2D float array) from a CSV written by this module."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def write_kernel_csv(path: str, kernel) -> None:
    """Flattened joint amplitude, one (ks, ki) sample per row, plus a sidecar.

    The table format holds real amplitudes only (every shipped model is
    real); a kernel with meaningful imaginary content is refused rather
    than silently truncated. The sidecar carries the grids and warnings
    as YAML next to the table, named with a .meta.yaml suffix.
    """
    amp = kernel.amplitude
    scale = np.abs(amp.real).max()
    if scale == 0 or (np.iscomplexobj(amp) and np.abs(amp.imag).max() > 1e-9 * scale):
        raise ValueError(
            "kernel amplitude is not real-valued; this table format cannot hold it"
        )
    ks = kernel.grid_s.points()
    ki = kernel.grid_i.points()
    kk_s, kk_i = np.meshgrid(ks, ki, indexing="ij")
    write_table_csv(path,
                    ["ks", "ki", "amplitude"],
                    [kk_s.ravel(), kk_i.ravel(), amp.real.ravel()])
    meta = {
        "signal_grid": {"k_min": float(kernel.grid_s.k_min),
                        "k_max": float(kernel.grid_s.k_max),
                        "n_points": int(kernel.grid_s.n_points)},
        "idler_grid": {"k_min": float(kernel.grid_i.k_min),
                       "k_max": float(kernel.grid_i.k_max),
                       "n_points": int(kernel.grid_i.n_points)},
        "normalized": bool(kernel.normalized),
        "warnings": list(kernel.warnings),
    }
    atomic_write_text(_sidecar_path(path), yaml.safe_dump(meta, sort_keys=True))


def _sidecar_path(path: str) -> str:
    base, ext = os.path.splitext(path)
    return f"{base}.meta.yaml" if ext else f"{path}.meta.yaml"


def write_scan_csv(path: str, spectrum) -> None:
    write_table_csv(path, ["position_um_inv", "rate"],
                    [spectrum.positions, spectrum.rates])


def write_coefficients_csv(path: str, decomposition) -> None:
    c = decomposition.coefficients
    write_table_csv(path, ["mode", "coefficient", "weight"],
                    [np.arange(c.size), c, c ** 2])


def write_modes_csv(path: str, k_points: np.ndarray, modes: np.ndarray) -> None:
    """Mode functions as columns; complex values split into re/im pairs."""
    header = ["k_um_inv"]
    columns = [k_points]
    for m in range(modes.shape[0]):
        header += [f"mode{m:02d}_re", f"mode{m:02d}_im"]
        columns += [modes[m].real, np.imag(modes[m])]
    write_table_csv(path, header, columns)


def write_crosstalk_csv(path: str, matrix) -> None:
    n = matrix.values.shape[0]
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    write_table_csv(path, ["row", "col", "value", "log10_value"],
                    [rows.ravel(), cols.ravel(),
                     matrix.values.ravel(), matrix.log10().ravel()])


def write_field_csv(path: str, profile) -> None:
    write_table_csv(path, ["x_um", "field_re", "field_im"],
                    [profile.coordinates_um,
                     profile.amplitude.real, np.imag(profile.amplitude)])
