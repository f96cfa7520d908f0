"""File outputs: plain CSV with full-precision floats.

Each writer writes the path it is given. The command line hands every
writer a path in a stage directory and moves a run's files into place only
once all of them are written, so a failed run leaves none of them behind.
Floats are printed with 17 significant digits (lossless for float64). A
real column is written as itself and a complex one as its <name>_re,
<name>_im pair, by its dtype. Every table goes through one chunk loop,
which formats and writes at most CHUNK_VALUES values at a time (at least
one row, and kernel.csv whole kernel rows), so an export never holds the
whole file's text in memory, however wide or long.

A block of a table is formatted by numpy, not value by value, with the
bytes FLOAT_FMT % would give. Each value's 17 digits are the rounding of
y = |x| 10^(16 - e) for e = floor(log10 |x|), formed in long double from
a table of correctly rounded powers of ten: y is off by at most two
roundings of 2^-64, under 0.011, so unless y lies within TIE_MARGIN (0.022)
of a half its rounding is the correctly rounded digit string. Those values
(about 4% of random ones; exact ties, which % rounds half to even, among
them), the few at or near a power of ten, whose e may be off by one, and
inf and nan are formatted with FLOAT_FMT % in one call per chunk.
Where long double is float64 the margin exceeds a half, and every value
takes that path.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np
import yaml

FLOAT_FMT = "%.16e"
# values formatted per chunk: the formatter's work arrays take about 45 B a value
CHUNK_VALUES = 4096

# One value's FLOAT_FMT text in a table buffer: at most 24 bytes
# (-1.7976931348623157e+308) in a fixed layout, NUL where the text has no
# byte (a plus sign, the hundreds of a two-digit exponent, the tail of
# "nan"), then its separator. "text" overlays the layout: the % path
# writes it, and kernel.csv copies its grid columns' text through it.
_FIELD = np.dtype({"names": ["text", "sign", "lead", "point", "d0", "d1", "d2", "d3", "e",
                             "exponent", "sep"],
                   "formats": ["S24", "u1", "u1", "u1", "<u4", "<u4", "<u4", "<u4", "u1", "<u4",
                               "u1"],
                   "offsets": [0, 0, 1, 2, 3, 7, 11, 15, 19, 20, 24], "itemsize": 25})
# y = |x| 10^(16 - e) carries two roundings of the long double's unit
# roundoff (in 10^p and in the product), so it is within 1e17 * eps of the
# exact value; twice that from a half (room for a power of ten off by a
# whole unit), its rounding is the correctly rounded 17-digit integer. A
# float64 long double makes it 44: every value then takes the % path.
TIE_MARGIN = 2e17 * float(np.finfo(np.longdouble).eps)
_E_MIN, _E_MAX = -324, 308  # floor(log10 |x|) over the nonzero doubles
# y + 1/2 for the 17-digit D strictly between 10^16 and 10^17
_D_MIN, _D_END = np.longdouble(10 ** 16 + 1), np.longdouble(10 ** 17)
# correctly rounded 10^(16 - e), parsed from strings, for e = _E_MAX down to _E_MIN
_POW10 = np.array([f"1e{16 - e}" for e in range(_E_MAX, _E_MIN - 1, -1)]).astype(np.longdouble)
# the four ASCII digits of 0 to 9999, first digit in the low byte, built
# by copies of a table of two
_DIGITS = np.array([b"%02d" % i for i in range(100)]).view("<u2")
_DIGITS = np.stack([np.repeat(_DIGITS, 100), np.tile(_DIGITS, 100)], axis=1).view("<u4").ravel()
# the exponent's sign and digits for e = _E_MIN to _E_MAX, a NUL for the
# hundreds of a two-digit one
_EXPONENTS = np.array([b"%+04d" % e if abs(e) >= 100 else b"%c\0%02d" % (b"+-"[e < 0], abs(e))
                       for e in range(_E_MIN, _E_MAX + 1)]).view("<u4")


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


def _format_into(values: np.ndarray, fields: np.ndarray) -> None:
    """Write the FLOAT_FMT text of each float64 in ``values`` into the
    _FIELD record of the same index in ``fields``; separators are left as
    they are.

    The 17 digits are D = floor(y + 1/2), y = |x| 10^(16 - e) in long
    double, for the exponent guess e = floor(log10 |x|); a zero is D = 0,
    e = 0. A value whose y is within TIE_MARGIN of a half (a tie, which %
    rounds to even), whose D is not strictly between 10^16 and 10^17 (e
    guessed off by one, or too close to a power of ten to tell), or that is
    inf or nan is formatted with FLOAT_FMT % instead, all of them in one
    call.
    """
    a = np.abs(values)
    live = np.isfinite(a) & (a != 0.0)
    e = np.where(live, a, 1.0)
    del live
    e = np.floor(np.log10(e, out=e), out=e).astype(np.intp)
    fields["exponent"] = _EXPONENTS[e - _E_MIN]
    y = _POW10[_E_MAX - e]
    del e
    with np.errstate(invalid="ignore"):  # nan, and inf cast to an integer
        y *= a
        del a
        y += 0.5
        exact = ((y >= _D_MIN) & (y < _D_END)) | (values == 0.0)
        digits = y.astype(np.uint64)
        y -= digits  # the fraction y + 1/2 - D
        exact &= (y >= TIE_MARGIN) & (y <= 1.0 - TIE_MARGIN)
    del y
    fields["sign"] = np.where(np.signbit(values), np.uint8(ord("-")), np.uint8(0))
    fields["point"] = ord(".")
    fields["e"] = ord("e")
    high = digits // 10 ** 8
    digits -= high * 10 ** 8
    lead = high // 10 ** 8
    fields["lead"] = lead + ord("0")
    high -= lead * 10 ** 8
    del lead
    for first, second, eight in (("d0", "d1", high), ("d2", "d3", digits)):
        four = eight // 10 ** 4
        fields[first] = _DIGITS[four]
        eight -= four * 10 ** 4
        fields[second] = _DIGITS[eight]
    rest = np.nonzero(~exact)
    if rest[0].size:
        text = (FLOAT_FMT + ",") * rest[0].size % tuple(values[rest].tolist())
        fields["text"][rest] = text.encode("ascii").split(b",")[:-1]


def _buffer(shape: Tuple[int, ...]) -> Tuple[bytearray, np.ndarray]:
    """An all-NUL bytearray and its view as _FIELD records of ``shape``."""
    buffer = bytearray(_FIELD.itemsize * math.prod(shape))
    return buffer, np.frombuffer(buffer, _FIELD).reshape(shape)


def _parts(name: str, values: np.ndarray) -> List[Tuple[str, np.ndarray]]:
    """The (header name, real values) columns of ``values``: itself if its
    dtype is real, its <name>_re and <name>_im parts if complex."""
    if np.iscomplexobj(values):
        return [(f"{name}_re", values.real), (f"{name}_im", values.imag)]
    return [(name, values)]


def _chunks(header: Sequence[str], shape: Tuple[int, ...], per_row: int,
            fill: Callable[[np.ndarray, int], None]) -> Iterator[bytes]:
    """The header line, then a table of ``shape`` _FIELD records (rows
    first, columns last) in blocks of CHUNK_VALUES // per_row rows, at least
    one, for ``per_row`` values formatted a row. ``fill(fields, start)``
    fills a block's records, separators set, from row ``start`` on; its NUL
    bytes are dropped, and the rows a ragged last block leaves are all NUL."""
    yield (",".join(header) + "\n").encode("utf-8")
    rows = max(1, min(shape[0], CHUNK_VALUES // per_row))
    buffer, fields = _buffer((rows,) + tuple(shape[1:]))
    fields["sep"] = ord(",")
    fields["sep"][..., -1] = ord("\n")
    for start in range(0, shape[0], rows):
        count = min(rows, shape[0] - start)
        fields[count:].view(np.uint8)[...] = 0
        fill(fields[:count], start)
        yield buffer.translate(None, b"\0")


def _table_chunks(header: Sequence[str],
                  columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The CSV bytes np.savetxt(fmt=FLOAT_FMT, delimiter=",") would write
    for the real columns the _parts of ``columns`` give."""
    parts = [part for name, column in zip(header, columns, strict=True)
             for part in _parts(name, column)]
    cols = [np.asarray(column, dtype=float) for _, column in parts]

    def fill(fields: np.ndarray, start: int) -> None:
        _format_into(np.array([c[start:start + len(fields)] for c in cols]), fields.T)

    return _chunks([name for name, _ in parts], (cols[0].size, len(cols)), len(cols), fill)


def write_table_csv(path: str, header: Sequence[str],
                    columns: Sequence[np.ndarray]) -> None:
    if len({len(c) for c in columns}) > 1:
        raise ValueError("table columns differ in length")
    atomic_write_bytes(path, _table_chunks(header, columns))


def write_kernel_csv(path: str, kernel) -> None:
    """Flattened joint amplitude, one (ks, ki) sample per row, plus a sidecar.

    The columns are ks, ki and the amplitude, which _parts writes as
    amplitude_re, amplitude_im for a kernel with a complex profile. A chunk
    holds CHUNK_VALUES // N whole kernel rows, // 2N if complex (at least
    one); the ks and ki text is formatted once and copied into each. The
    sidecar carries the two grids and ``normalized`` as YAML next to the
    table, named with a .meta.yaml suffix.
    """
    n = kernel.grid_s.n_points
    names = [name for name, _ in _parts("amplitude", np.empty(0, kernel.dtype))]
    grids = np.zeros((2, n), _FIELD)
    _format_into(np.array([kernel.grid_s.points(), kernel.grid_i.points()]), grids)
    ks, ki = grids["text"]

    def fill(fields: np.ndarray, start: int) -> None:
        fields["text"][:, :, 0] = ks[start:start + len(fields), None]
        fields["text"][:, :, 1] = ki
        block = kernel.rows(start, start + len(fields))
        for column, (_, values) in enumerate(_parts("amplitude", block), 2):
            _format_into(values, fields[:, :, column])

    atomic_write_bytes(path, _chunks(["ks", "ki"] + names, (n, n, 2 + len(names)),
                                     n * len(names), fill))
    meta = {
        "signal_grid": {"k_min": float(kernel.grid_s.k_min),
                        "k_max": float(kernel.grid_s.k_max),
                        "n_points": int(kernel.grid_s.n_points)},
        "idler_grid": {"k_min": float(kernel.grid_i.k_min),
                       "k_max": float(kernel.grid_i.k_max),
                       "n_points": int(kernel.grid_i.n_points)},
        "normalized": True,
    }
    atomic_write_text(os.path.splitext(path)[0] + ".meta.yaml",
                      yaml.safe_dump(meta, sort_keys=True))


def write_scan_csv(path: str, profile) -> None:
    write_table_csv(path, ["position_um_inv", "rate"], [profile.x, profile.values])


def write_coefficients_csv(path: str, decomposition) -> None:
    c = decomposition.coefficients
    write_table_csv(path, ["mode", "coefficient", "weight"],
                    [np.arange(c.size), c, c ** 2])


def write_modes_csv(path: str, k_points: np.ndarray, modes: np.ndarray) -> None:
    """Mode functions as columns mode00, mode01, ... (re/im pairs if complex)."""
    write_table_csv(path, ["k_um_inv"] + [f"mode{m:02d}" for m in range(len(modes))],
                    [k_points, *modes])


def write_crosstalk_csv(path: str, matrix) -> None:
    n = matrix.values.shape[0]
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    write_table_csv(path, ["row", "col", "value", "log10_value"],
                    [rows.ravel(), cols.ravel(),
                     matrix.values.ravel(), matrix.log10().ravel()])


def write_field_csv(path: str, profile) -> None:
    write_table_csv(path, ["x_um", "field"], [profile.x, profile.values])
