"""The chunked table writer: its bytes, its memory and its failure path."""

import io
import os
import warnings

import numpy as np
import pytest

from spdc_modes import cli, exports
from spdc_modes.cli import main
from spdc_modes.config import load_config
from spdc_modes.exports import (CHUNK_VALUES, FLOAT_FMT, write_kernel_csv, write_modes_csv,
                                write_table_csv)
from spdc_modes.kernel import TpaKernel, build_multipeak
from spdc_modes.optics import WavevectorGrid
from spdc_modes.schmidt import schmidt_decompose

from oracles import read_csv
from test_schmidt import phased_kernel
from traced import traced_peak

# rows per chunk of a one-column table; a three-column one, such as
# kernel.csv, holds a third of them, so 4095 rows are three whole chunks
ROWS_PER_CHUNK = CHUNK_VALUES
# and of a 129-column one, such as a table of 64 complex modes with their re/im pairs
WIDE_ROWS = CHUNK_VALUES // 129
SINGLE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "single_mode.yaml")
THREE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "three_modes.yaml")
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.7e308, -1.7e308,
           1.0, -1.0 / 3.0, 2.0 ** -1074 * 3, 6.02214076e23, 1e-300]


def savetxt_bytes(header, columns, fmt=FLOAT_FMT) -> bytes:
    """The writer this module replaced, kept as the oracle of its bytes."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([np.asarray(c, dtype=float) for c in columns]),
               fmt=fmt, delimiter=",", header=",".join(header), comments="")
    return buf.getvalue().encode("utf-8")


def table(rows: int, n_cols: int, seed: int):
    rng = np.random.default_rng(seed)
    columns = []
    for j in range(n_cols):
        col = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        specials = rng.random(rows) < 0.3
        col[specials] = rng.choice(SPECIAL, specials.sum())
        columns.append(col)
    return [f"c{j}" for j in range(n_cols)], columns


@pytest.mark.parametrize("rows", [0, 1, ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK,
                                  ROWS_PER_CHUNK + 1, 2 * ROWS_PER_CHUNK + 7])
@pytest.mark.parametrize("n_cols", [1, 3])
def test_table_bytes_match_savetxt(tmp_path, rows, n_cols):
    header, columns = table(rows, n_cols, seed=rows + n_cols)
    path = tmp_path / "t.csv"
    write_table_csv(str(path), header, columns)
    assert path.read_bytes() == savetxt_bytes(header, columns)


# one row, either side of one chunk's end, and ragged last chunks of 7, 1 to 3 and 11 rows
@pytest.mark.parametrize("rows", [1, WIDE_ROWS - 1, WIDE_ROWS, WIDE_ROWS + 1, 2 * WIDE_ROWS + 7,
                                  3 * WIDE_ROWS + 1, 3 * WIDE_ROWS + 2, 3 * WIDE_ROWS + 3,
                                  6 * WIDE_ROWS + 11])
def test_wide_table_bytes_match_savetxt_across_chunks(tmp_path, rows):
    header, columns = table(rows, 129, seed=rows)
    path = tmp_path / "t.csv"
    write_table_csv(str(path), header, columns)
    assert path.read_bytes() == savetxt_bytes(header, columns)


def test_a_wide_table_is_formatted_in_chunks_of_bounded_size():
    header, columns = table(2 * WIDE_ROWS + 7, 129, seed=5)
    chunks = list(exports._table_chunks(header, columns))
    # the header, two full chunks and the ragged rest
    assert [chunk.count(b"\n") for chunk in chunks] == [1, WIDE_ROWS, WIDE_ROWS, 7]
    # one value too many for a whole row still formats a row at a time
    header, columns = table(3, CHUNK_VALUES + 1, seed=6)
    assert [chunk.count(b"\n") for chunk in exports._table_chunks(header, columns)] == [1, 1, 1, 1]


@pytest.mark.parametrize("rows", [0, 1, WIDE_ROWS + 1, 2 * WIDE_ROWS + 7, 3 * WIDE_ROWS + 3,
                                  6 * WIDE_ROWS + 11])
def test_zero_columns_formatted_once_match_savetxt(tmp_path, rows):
    """Columns of +0.0 (the _im columns of 64 complex modes with no
    imaginary part), of -0.0, of zeros with one -0.0 or one non-zero value,
    and tables of zeros only match savetxt; each zero's field is 0 x 10^0
    with np.signbit's sign."""
    header, columns = table(rows, 129, seed=rows + 11)
    for j in range(2, 129, 2):  # the _im columns of 64 modes with no imaginary part
        columns[j] = np.zeros(rows)
    columns[3] = np.full(rows, -0.0)
    columns[5] = np.zeros(rows)
    columns[5][rows // 2:rows // 2 + 1] = -0.0
    columns[7] = np.zeros(rows)
    columns[7][-1:] = 1e-300
    path = tmp_path / "t.csv"
    write_table_csv(str(path), header, columns)
    assert path.read_bytes() == savetxt_bytes(header, columns)
    for n_cols in (1, 3):
        only_zeros = [np.zeros(rows)] * n_cols
        write_table_csv(str(path), header[:n_cols], only_zeros)
        assert path.read_bytes() == savetxt_bytes(header[:n_cols], only_zeros)


def test_special_values_and_a_wide_table_match_savetxt(tmp_path):
    # the many-modes mode tables are 129 columns wide; -0.0 must stay
    # distinct from 0.0, and int columns are written as floats
    header, columns = table(ROWS_PER_CHUNK + 1, 129, seed=7)
    columns[0] = np.resize(np.array(SPECIAL), ROWS_PER_CHUNK + 1)
    columns[1] = np.arange(ROWS_PER_CHUNK + 1)
    path = tmp_path / "wide.csv"
    write_table_csv(str(path), header, columns)
    data = path.read_bytes()
    assert data == savetxt_bytes(header, columns)
    assert b"\n-0.0000000000000000e+00," in data and b"\nnan," in data
    assert b"\n4.9406564584124654e-324," in data and b"\n-inf," in data


def fuzz_values(seed: int) -> np.ndarray:
    """Doubles on which a shortcut to %.16e would slip: random bit patterns
    (every exponent, subnormals, nan payloads), signed zeros and infinities,
    powers of ten and their neighbours, and exact decimal ties, which %
    rounds half to even."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # odd M / 4 has 18 significant digits ending in 5 for M in [4e15, 9e15]
    ties = (rng.integers(2 * 10 ** 15, 45 * 10 ** 14, 20_000) * 2 + 1) / 4.0
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 0.1, 0.5]
    values = np.concatenate([bits, powers, ties, specials])
    return np.where(rng.random(values.size) < 0.5, values, -values)


@pytest.mark.parametrize("n_cols", [1, 3])
def test_the_vectorised_fields_match_percent_on_fuzzed_values(n_cols):
    values = fuzz_values(seed=30 + n_cols)
    values = values[:values.size // n_cols * n_cols]
    columns = list(values.reshape(-1, n_cols).T)
    data = b"".join(exports._table_chunks([f"c{j}" for j in range(n_cols)], columns))
    assert data == savetxt_bytes([f"c{j}" for j in range(n_cols)], columns)


def test_a_float64_long_double_sends_every_value_through_percent(monkeypatch):
    # a long double no wider than float64 makes the margin 44, more than any
    # fraction's distance from a half; FLOAT_FMT's capital E then marks each
    # field that % wrote, and every field has it
    monkeypatch.setattr(exports, "TIE_MARGIN", 2e17 * float(np.finfo(np.float64).eps))
    monkeypatch.setattr(exports, "FLOAT_FMT", "%.16E")
    header, columns = table(3 * ROWS_PER_CHUNK, 3, seed=9)
    assert b"".join(exports._table_chunks(header, columns)) == savetxt_bytes(header, columns,
                                                                             "%.16E")


def test_the_long_double_formats_all_but_the_values_near_a_tie(monkeypatch):
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("long double is narrower than x87 extended here, "
                    "so every value takes the % path")
    monkeypatch.setattr(exports, "FLOAT_FMT", "%.16E")
    rng = np.random.default_rng(9)
    values = rng.standard_normal(CHUNK_VALUES) * 10.0 ** rng.integers(-300, 300, CHUNK_VALUES)
    data = b"".join(exports._table_chunks(["x"], [values]))
    assert data.lower() == savetxt_bytes(["x"], [values])
    # y within 0.022 of a half: about 4.4% of them
    assert 0.0 < data.count(b"E") / CHUNK_VALUES < 0.06


def test_a_complex_column_is_written_as_its_re_im_pair(tmp_path):
    # by its dtype, with no ComplexWarning: a cast to float would write the
    # real part alone
    header, columns = table(ROWS_PER_CHUNK + 1, 3, seed=12)
    z = np.empty(ROWS_PER_CHUNK + 1, complex)
    z.real, z.imag = columns[1], columns[2]
    z[0] = 1 + 2j
    path = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_table_csv(str(path), ["x", "z"], [columns[0], z])
    data = path.read_bytes()
    assert data == savetxt_bytes(["x", "z_re", "z_im"], [columns[0], z.real, z.imag])
    assert b",1.0000000000000000e+00,2.0000000000000000e+00\n" in data


def test_ragged_columns_are_refused_and_leave_no_file(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_table_csv(str(tmp_path / "t.csv"), ["a", "b"], [np.zeros(3), np.zeros(4)])
    # a header that names more or fewer columns than it is given
    for header in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="zip"):
            write_table_csv(str(tmp_path / "t.csv"), header, [np.zeros(3), np.zeros(3)])
    assert os.listdir(tmp_path) == []


def profile_kernel(n: int, imag) -> TpaKernel:
    """A kernel of seeded random profiles, with zeros in the pump so that
    -0.0 occurs. For ``imag`` None it is real; otherwise complex, with an
    imaginary part, ``imag`` times the largest |P| |M|, on its last row only
    (0.0: a complex-promoted real kernel)."""
    rng = np.random.default_rng(n)
    pump, match = rng.standard_normal((2, 2 * n - 1))
    pump[::7] = 0.0
    match[n - 1] = np.abs(match).max()
    if imag is not None:
        # P[2n - 2] reaches only the last row's last column, F[n - 1, n - 1]
        pump = pump.astype(complex)
        pump[-1] = 1j * imag * np.abs(pump).max()
    return TpaKernel.from_profiles(WavevectorGrid.centered(0.7, 0.3, n), pump, match)


def imag_share(kernel) -> float:
    """max |Im F| / max |Re F|."""
    amp = kernel.amplitude
    return np.abs(amp.imag).max() / np.abs(amp.real).max()


def kernel_csv_oracle(kernel) -> bytes:
    """kernel.csv as the whole-table writer formed it: the meshgrid ks and
    ki columns beside the whole amplitude, or its real and imaginary parts."""
    ks, ki = np.meshgrid(kernel.grid_s.points(), kernel.grid_i.points(), indexing="ij")
    amp = kernel.amplitude.ravel()
    if np.iscomplexobj(amp):
        return savetxt_bytes(["ks", "ki", "amplitude_re", "amplitude_im"],
                             [ks.ravel(), ki.ravel(), amp.real, amp.imag])
    return savetxt_bytes(["ks", "ki", "amplitude"], [ks.ravel(), ki.ravel(), amp])


def write_counting_chunks(monkeypatch, path, kernel):
    """Write ``kernel``'s kernel.csv at ``path``; the line count of each chunk."""
    lines = []
    write = exports.atomic_write_bytes

    def counting(path, data):
        # count the lines of each chunk of the table; the sidecar is one bytes object
        def chunks():
            for chunk in data:
                lines.append(chunk.count(b"\n"))
                yield chunk
        write(path, data if isinstance(data, bytes) else chunks())

    monkeypatch.setattr(exports, "atomic_write_bytes", counting)
    write_kernel_csv(str(path), kernel)
    return lines


def chunk_lines(n: int, rows: int):
    """The header, then ``rows`` kernel rows of ``n`` lines a chunk and the ragged rest."""
    full, rest = divmod(n, rows)
    return [1] + [rows * n] * full + ([rest * n] if rest else [])


# 37 rows fit one chunk; 513 rows make chunks of 7 and a ragged last one of 2
@pytest.mark.parametrize("n", [37, 513], ids=["real-37", "real-513"])
def test_kernel_csv_bytes_match_savetxt_of_the_whole_table(tmp_path, monkeypatch, n):
    kernel = profile_kernel(n, None)
    assert kernel.amplitude.dtype == np.float64
    path = tmp_path / "kernel.csv"
    lines = write_counting_chunks(monkeypatch, path, kernel)
    data = path.read_bytes()
    assert data == kernel_csv_oracle(kernel)
    assert b"\n-0.0000000000000000e+00," not in data  # ks and ki hold no -0.0 ...
    assert b",-0.0000000000000000e+00\n" in data     # ... but the amplitude does
    assert lines == chunk_lines(n, max(1, CHUNK_VALUES // n))
    assert (tmp_path / "kernel.meta.yaml").is_file()


# a complex profile is written as its re/im pair by its dtype, whatever its
# imaginary share: 0.0 (a complex-promoted real kernel, whose amplitude_im
# holds only zeros) and 1e-10, on the last row, included. A chunk formats
# CHUNK_VALUES // (2 n) kernel rows of two parts each: 37 rows fit one, and
# 514 make chunks of 3 and a ragged last one of 1, the row with the imaginary part
@pytest.mark.parametrize("n", [37, 514])
@pytest.mark.parametrize("imag", [0.0, 1e-10], ids=["complex-promoted", "tiny-imag"])
def test_a_complex_kernel_csv_is_its_re_im_pair_whatever_its_imaginary_share(
        tmp_path, monkeypatch, n, imag):
    kernel = profile_kernel(n, imag)
    assert kernel.amplitude.dtype == np.complex128
    assert imag_share(kernel) == pytest.approx(imag, rel=1e-9, abs=0.0)
    path = tmp_path / "kernel.csv"
    lines = write_counting_chunks(monkeypatch, path, kernel)
    data = path.read_bytes()
    assert data.startswith(b"ks,ki,amplitude_re,amplitude_im\n")
    assert data == kernel_csv_oracle(kernel)
    assert lines == chunk_lines(n, max(1, CHUNK_VALUES // (2 * n)))


def as_complex(parts: np.ndarray) -> np.ndarray:
    """The complex128 values of a table's adjacent _re, _im column pairs."""
    return np.ascontiguousarray(parts).view(np.complex128)


def test_a_phased_pump_kernel_and_its_mode_tables_round_trip_bit_for_bit(tmp_path):
    kernel = phased_kernel(320)
    n = kernel.grid_s.n_points
    write_kernel_csv(str(tmp_path / "kernel.csv"), kernel)
    header, table = read_csv(str(tmp_path / "kernel.csv"))
    assert header == ["ks", "ki", "amplitude_re", "amplitude_im"]
    assert as_complex(table[:, 2:]).tobytes() == kernel.rows(0, n).tobytes()
    ks, ki = np.meshgrid(kernel.grid_s.points(), kernel.grid_i.points(), indexing="ij")
    assert table[:, :2].tobytes() == np.column_stack([ks.ravel(), ki.ravel()]).tobytes()

    dec = schmidt_decompose(kernel)
    assert dec.signal_modes.dtype == np.complex128
    for name, grid, modes in (("signal", dec.grid_s, dec.signal_modes),
                              ("idler", dec.grid_i, dec.idler_modes)):
        path = str(tmp_path / f"{name}_modes.csv")
        write_modes_csv(path, grid.points(), modes)
        header, table = read_csv(path)
        assert header == ["k_um_inv"] + [f"mode{m:02d}_{part}" for m in range(dec.n_modes)
                                         for part in ("re", "im")]
        assert table[:, 0].tobytes() == grid.points().tobytes()
        assert as_complex(table[:, 1:]).T.tobytes() == modes.tobytes()


def test_real_mode_tables_hold_one_column_per_mode(tmp_path, capsys):
    # a real kernel's modes are real: one column each, and no all-zero _im
    assert main(["schmidt", "--config", THREE, "--out", str(tmp_path)]) == 0
    assert "modes kept: 21" in capsys.readouterr().out
    cfg = load_config(THREE)
    dec = schmidt_decompose(build_multipeak(cfg.pump, cfg.grid))
    assert dec.signal_modes.dtype == np.float64
    for name, modes in (("signal", dec.signal_modes), ("idler", dec.idler_modes)):
        header, table = read_csv(str(tmp_path / f"{name}_modes.csv"))
        assert header == ["k_um_inv"] + [f"mode{m:02d}" for m in range(21)]
        assert table[:, 1:].T.tobytes() == modes.tobytes()


def test_tpa_writes_a_complex_kernel_as_its_re_im_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.kernel, "build_multipeak", lambda pump, grid: profile_kernel(64, 0.5))
    out = tmp_path / "out"
    assert main(["tpa", "--config", SINGLE, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "kernel.csv").read_bytes() == kernel_csv_oracle(profile_kernel(64, 0.5))


def assert_peak_does_not_grow_with_rows(tmp_path, rows_per_chunk, n_cols, seed):
    """The table at 4 and at 16 chunks: one chunk's buffer and text, and the
    formatter's work arrays, are the most the writer holds, whatever the row
    count (a whole-table writer holds the rows, the text and its bytes:
    ~3x the file)."""
    small = table(4 * rows_per_chunk, n_cols, seed=seed)
    large = table(16 * rows_per_chunk, n_cols, seed=seed + 1)
    _, peak_small = traced_peak(lambda: write_table_csv(str(tmp_path / "small.csv"), *small))
    _, peak_large = traced_peak(lambda: write_table_csv(str(tmp_path / "large.csv"), *large))
    size_large = os.path.getsize(tmp_path / "large.csv")
    assert peak_large < 1.25 * peak_small
    assert peak_large < 0.5 * size_large


def test_writer_peak_memory_does_not_grow_with_rows(tmp_path):
    # a kernel-shaped table
    assert_peak_does_not_grow_with_rows(tmp_path, CHUNK_VALUES // 3, 3, seed=1)


def test_wide_writer_peak_memory_does_not_grow_with_rows(tmp_path):
    # a table of 64 complex modes with their re/im pairs; the 64 real modes
    # of many-modes write 65 columns
    assert_peak_does_not_grow_with_rows(tmp_path, WIDE_ROWS, 129, seed=3)


class FullDiskAfterFirstChunk:
    """A file whose second write fails as a full disk does."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, chunk):
        self.writes += 1
        if self.writes == 2:
            # the first chunk is on disk when the write fails
            self.fh.flush()
            assert os.fstat(self.fh.fileno()).st_size > 0
            raise OSError(28, "No space left on device")
        return self.fh.write(chunk)


def fill_disk_after_first_chunk(monkeypatch):
    monkeypatch.setattr(exports, "open",
                        lambda path, mode: FullDiskAfterFirstChunk(open(path, mode)),
                        raising=False)


@pytest.fixture
def full_disk(monkeypatch):
    fill_disk_after_first_chunk(monkeypatch)


def test_a_write_failing_mid_table_names_the_target(tmp_path, full_disk):
    # the writer leaves the partial file; the command's stage directory is
    # what keeps it from a run's outputs
    header, columns = table(3 * ROWS_PER_CHUNK, 3, seed=3)
    target = tmp_path / "t.csv"
    with pytest.raises(OSError) as info:
        write_table_csv(str(target), header, columns)
    assert info.value.errno == 28 and info.value.filename == str(target)


def test_a_disk_filling_mid_table_is_reported_at_the_final_path(tmp_path, capsys, full_disk):
    # kernel.csv at 128 points is 4 chunks, written first into the stage
    # directory; the disk fills after its first chunk
    argv = ["tpa", "--config", SINGLE, "--out", str(tmp_path), "--grid-points", "128"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == (f"output error: [Errno 28] No space left on device: "
                   f"'{tmp_path / 'kernel.csv'}'\n")
    assert os.listdir(tmp_path) == []


def test_a_failed_rerun_leaves_the_previous_files_as_they_were(tmp_path, capsys, monkeypatch):
    # the rerun asks for a finer grid, and its kernel.csv fails after the
    # first chunk inside the stage; the first run's files stay untouched
    assert main(["tpa", "--config", SINGLE, "--out", str(tmp_path), "--grid-points", "64"]) == 0
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert sorted(before) == ["kernel.csv", "kernel.meta.yaml", "tpa.log"]
    fill_disk_after_first_chunk(monkeypatch)
    assert main(["tpa", "--config", SINGLE, "--out", str(tmp_path), "--grid-points", "128"]) == 4
    assert capsys.readouterr().err == (f"output error: [Errno 28] No space left on device: "
                                       f"'{tmp_path / 'kernel.csv'}'\n")
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".stage-")]
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
