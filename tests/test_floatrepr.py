"""The vectorised repr kernel and its CSV row writer against repr itself."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from fplab import _floatrepr
from fplab._floatrepr import BLOCK_VALUES, csv_rows

from reference import csv_rows_reference


def _texts(values) -> list[str]:
    """The kernel's text of each value, read off one column of rows."""
    values = np.asarray(values, dtype=np.float64)
    rows = csv_rows(0, values[:, None]).splitlines()
    assert [row.split(",", 1)[0] for row in rows] == [str(i) for i in range(values.shape[0])]
    return [row.split(",", 1)[1] for row in rows]


def _reprs(values) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=np.float64).tolist()]


_SUBNORMAL_MAX = np.nextafter(2.2250738585072014e-308, 0.0)
_POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
# each kind of value the layout and the digits tell apart
CORPUS = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, _SUBNORMAL_MAX, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan],
    _POWERS_OF_TWO, -_POWERS_OF_TWO,
    # the largest fixed-notation exponent, and the first scientific one
    [1e15, 1e16, 9999999999999998.0, 1e17, 123456789012345.67, 1234567890123456.8],
    # the smallest fixed-notation exponent, and the first scientific one
    [1e-4, 1e-5, 0.00012345, 1.2345e-05, 0.001, 0.1, 0.3],
    # three-digit exponents and their neighbours
    [1e100, 1.5e-100, 9.999999999999999e99, 1e-99, 2.5e-308, 1e300, 1e-300],
    # integers near 2**53, where the spacing of floats becomes 2
    2.0 ** 53 + np.arange(-8.0, 9.0) * 2.0, 2.0 ** 53 - np.arange(1.0, 9.0),
    # the exact value halfway between two shortest candidates: the even
    # one is written
    [1743829569681555.2, 16705807354210.812, 2.9802322387695312e-08],
    [float(f"1e{e}") for e in range(-323, 309)],
])


def test_the_corpus_reads_as_repr():
    assert _texts(CORPUS) == _reprs(CORPUS)


@settings(max_examples=200)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns_read_as_repr(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _texts(values) == _reprs(values)


@settings(max_examples=200)
@given(values=st.lists(st.floats(), min_size=1, max_size=64))
def test_floats_read_as_repr(values):
    assert _texts(values) == _reprs(values)


def test_every_digit_count_and_scale():
    """Decimals of 1 to 17 significant digits over the whole exponent range."""
    rng = np.random.default_rng(7)
    for places in range(1, 18):
        digits = rng.integers(10 ** (places - 1), 10 ** places, 200)
        scale = rng.integers(-340, 300, 200)
        values = [float(f"{d}e{e}") for d, e in zip(digits.tolist(), scale.tolist())]
        assert _texts(values) == _reprs(values)


def test_rows_cross_blocks_and_index_widths():
    rng = np.random.default_rng(3)
    table = rng.integers(0, 2 ** 64, (BLOCK_VALUES // 3 + 5, 3), dtype=np.uint64).view(np.float64)
    assert csv_rows(0, table) == csv_rows_reference(0, table)
    # the row index outgrows eight digits inside the table
    assert csv_rows(10 ** 8 - 3, table[:7]) == csv_rows_reference(10 ** 8 - 3, table[:7])
    assert csv_rows(5, table[:0]) == ""
    with mock.patch.object(_floatrepr, "BLOCK_VALUES", 4):
        assert csv_rows(98, table[:9]) == csv_rows_reference(98, table[:9])
    # a trace refuses an infinite coordinate, whose gaps are not finite; the
    # writer takes one as repr does
    head = np.array([[1.0, 0.5], [math.inf, 2.5e-310], [-math.inf, math.nan], [-0.0, 1e-5]])
    assert csv_rows(0, head) == csv_rows_reference(0, head)
