"""File outputs: plain CSV with full-precision floats.

Each writer writes the path it is given. The command line hands every
writer a path in a stage directory and moves a run's files into place only
once all of them are written, so a failed run leaves none of them behind.
Floats are printed with 17 significant digits (lossless for float64).
Tables are formatted and written at most CHUNK_VALUES values at a time
(kernel.csv at least one whole kernel row), so an export never holds the
whole file's text in memory, however wide or long.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence, Union

import numpy as np
import yaml

FLOAT_FMT = "%.16e"
# values per formatted chunk: 4096 rows of a three-column table such as kernel.csv
CHUNK_VALUES = 3 * 4096


def atomic_write_bytes(path: str, data: Union[bytes, Iterable[bytes]]) -> None:
    """Write ``data`` (bytes, or an iterable of byte chunks) to ``path``.

    An OS error that names no file is reported at ``path``. A failure can
    leave a partial file at ``path``: the command line's stage directory,
    not this function, makes a run's files all or none.
    """
    try:
        with open(path, "wb") as fh:
            for chunk in (data,) if isinstance(data, bytes) else data:
                fh.write(chunk)
                del chunk  # so the next chunk is formed without this one
    except OSError as exc:
        if exc.filename is None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _table_chunks(header: Sequence[str],
                  columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The CSV bytes np.savetxt(fmt=FLOAT_FMT, delimiter=",") would write,
    in blocks of at most CHUNK_VALUES values (at least one row), each
    formatted with one ``%``. A column of +0.0 only (the ``_im`` column of a
    real mode) has its text formatted once, into the row template."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    yield (",".join(header) + "\n").encode("utf-8")
    zero = [not c.any() and not np.signbit(c).any() for c in cols]
    row_fmt = ",".join(FLOAT_FMT % 0.0 if z else FLOAT_FMT for z in zero) + "\n"
    live = [c for c, z in zip(cols, zero) if not z]
    rows = max(1, CHUNK_VALUES // len(cols))
    for start in range(0, cols[0].size, rows):
        count = min(rows, cols[0].size - start)
        block = np.column_stack([c[start:start + rows] for c in live]) if live else ()
        yield ((row_fmt * count) % tuple(np.ravel(block).tolist())).encode("utf-8")


def write_table_csv(path: str, header: Sequence[str],
                    columns: Sequence[np.ndarray]) -> None:
    if len({len(c) for c in columns}) > 1:
        raise ValueError("table columns differ in length")
    atomic_write_bytes(path, _table_chunks(header, columns))


def write_kernel_csv(path: str, kernel) -> None:
    """Flattened joint amplitude, one (ks, ki) sample per row, plus a sidecar.

    The table format holds real amplitudes only (every shipped model is
    real); a kernel with a complex profile is refused, before any byte is
    written, rather than silently truncated. A chunk holds whole kernel
    rows, so past N = 4096 one row exceeds CHUNK_VALUES. The sidecar
    carries the grids and warnings as YAML next to the table, named with a
    .meta.yaml suffix.
    """
    if np.iscomplexobj(kernel.at_sums) or np.iscomplexobj(kernel.at_differences):
        raise ValueError("kernel amplitude is not real-valued; this table format cannot hold it")
    n = kernel.grid_s.n_points
    rows = max(1, CHUNK_VALUES // (3 * n))
    # the ki column repeats in every kernel row: format it once, as one row's
    # template whose NUL bytes (in no float's text) take the row's ks text
    fmt = FLOAT_FMT.encode("ascii")
    row = b"".join(b"\0," + fmt % k + b"," + fmt + b"\n" for k in kernel.grid_i.points().tolist())
    ks = kernel.grid_s.points().tolist()

    def chunks() -> Iterator[bytes]:
        yield b"ks,ki,amplitude\n"
        for start in range(0, n, rows):
            yield b"".join(row.replace(b"\0", fmt % k) % tuple(values.tolist())
                           for k, values in zip(ks[start:start + rows],
                                                kernel.rows(start, start + rows)))

    atomic_write_bytes(path, chunks())
    meta = {
        "signal_grid": {"k_min": float(kernel.grid_s.k_min),
                        "k_max": float(kernel.grid_s.k_max),
                        "n_points": int(kernel.grid_s.n_points)},
        "idler_grid": {"k_min": float(kernel.grid_i.k_min),
                       "k_max": float(kernel.grid_i.k_max),
                       "n_points": int(kernel.grid_i.n_points)},
        "normalized": True,
        "warnings": list(kernel.warnings),
    }
    atomic_write_text(os.path.splitext(path)[0] + ".meta.yaml",
                      yaml.safe_dump(meta, sort_keys=True))


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
