"""Artifact writers: malformed CSV tables, block edges and every repr form
against the plain per-row writer, every cell against `repr` over random
bit patterns and the digit and layout edges, and the CSV writer's memory
bound."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracadrc.artifacts import CSV_BLOCK_ROWS, float_cells, write_csv
from fracadrc.freqdom import write_bode_csv, write_mse_csv

# every form a double's repr takes: signed zero, subnormal, exponent form
# above and below the fixed-point range, fixed point, and the non-finite
REPR_FORMS = [-0.0, 5e-324, 1e16, 1e-05, 0.0001, np.nan, np.inf, -np.inf, 1.0]


def per_row_csv(header, columns) -> str:
    """The plain per-row writer, the reference for every CSV table."""
    return ",".join(header) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))


@pytest.mark.parametrize("header, columns, match", [
    pytest.param(("a", "b"), [np.arange(3.0), np.arange(2.0)],
                 "column b has 2 rows, not the 3", id="unequal-lengths"),
    pytest.param(("a", "b", "c"), [np.arange(2.0)] * 2,
                 "3 names for 2 columns", id="more-names-than-columns"),
    pytest.param(("a", "b"), [np.arange(2.0), np.ones((2, 2))],
                 "column b is 2-D", id="2-d-column"),
    pytest.param((), [], "0 names for 0 columns", id="no-columns"),
])
def test_malformed_csv_table_is_rejected_before_the_file_is_opened(
        tmp_path, header, columns, match):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=match):
        write_csv(path, header, columns)
    assert not path.exists()


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  CSV_BLOCK_ROWS + 1])
@pytest.mark.parametrize("writer, header", [
    (lambda path, *cols: write_csv(path, ("a", "b", "c"), cols),
     ("a", "b", "c")),
    (write_mse_csv, ("omega_rad_s", "e_io", "e_ifio")),
    (write_bode_csv, ("omega_rad_s", "mag_db", "phase_deg")),
], ids=["write_csv", "write_mse_csv", "write_bode_csv"])
def test_csv_is_per_row_repr_at_block_edges(tmp_path, writer, header, rows):
    # each column cycles through every repr form from its own offset
    columns = [np.resize(np.roll(REPR_FORMS, k), rows) for k in range(3)]
    writer(tmp_path / "table.csv", *columns)
    # compared as lines: a failure then names the first differing row
    # instead of diffing two long texts
    assert ((tmp_path / "table.csv").read_text().splitlines(keepends=True)
            == per_row_csv(header, columns).splitlines(keepends=True))


def _edge_doubles() -> np.ndarray:
    """Doubles at the edges of the digit step and of the layout."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # a power of two's significand, 2**52, is the one whose rounding
    # interval is shorter below it than above
    neighbours = [np.nextafter(v, to) for v in (powers, tens)
                  for to in (0.0, np.inf)]
    subnormals = np.arange(1, 4097, dtype=np.uint64).view(np.float64)
    layout = [9999999999999998.0, 1e16, 1e100, 0.0001, 9.999999999999999e-05,
              1e-05, 1.7976931348623157e+308, 2.2250738585072014e-308,
              5e-324]
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, np.inf, -np.inf, *nans]
    edges = np.concatenate([powers, tens, *neighbours, subnormals, layout])
    return np.concatenate([edges, -edges, special])


# repr itself takes about 3 us a cell on random bit patterns (their
# exponents are mostly large), so 2**18 of them keep the test near 1 s
@pytest.mark.parametrize("doubles", [
    pytest.param(lambda: np.random.default_rng(25).integers(
        0, 2**64, 2**18, dtype=np.uint64, endpoint=False).view(np.float64),
        id="random-bit-patterns"),
    pytest.param(_edge_doubles, id="edges"),
])
def test_every_cell_is_its_doubles_repr(tmp_path, doubles):
    # in eight columns, a table of many write blocks
    x = doubles()
    table = np.resize(x, (-(-x.size // 8), 8))
    write_csv(tmp_path / "table.csv", tuple("abcdefgh"), list(table.T))
    body = (tmp_path / "table.csv").read_text().split("\n", 1)[1]
    got = body.replace("\n", ",").split(",")[:-1]
    expected = list(map(repr, table.ravel().tolist()))
    wrong = [(r, g) for r, g in zip(expected, got) if r != g]
    assert len(got) == len(expected) and not wrong[:10]


@given(st.floats())
def test_float_cell_is_repr(x):
    assert float_cells([x]) == [repr(x)]


def _write_peak_bytes(path, rows) -> int:
    """tracemalloc peak of writing a `rows`-row, 9-column table."""
    rng = np.random.default_rng(3)
    columns = [rng.standard_normal(rows) for _ in range(9)]
    tracemalloc.start()
    try:
        write_csv(path, tuple("abcdefghi"), columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_does_not_grow_with_the_table(tmp_path):
    small = _write_peak_bytes(tmp_path / "small.csv", 4096)
    large = _write_peak_bytes(tmp_path / "large.csv", 65536)
    assert large < 1.5e6
    assert large <= 1.2 * small
