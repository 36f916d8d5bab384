"""repr's text for whole float64 columns, and the CSV rows built from it.

The digits are those of Giulietti's Schubfach algorithm ("The Schubfach
way to render doubles", 2020, as in the JDK's DoubleToDecimal): the
shortest decimal that reads back to the same float, the closer one of
two such, and of two equally close the one with an even last digit.
That is the string CPython's repr writes.  Here it is computed for a
whole column at once in uint64 arithmetic, then laid out as repr lays it
out.  Subnormals, infinities and NaN, which that layout does not cover,
go through repr one value at a time.

A leaf module: it imports numpy and the standard library only.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_T_MASK = _U64((1 << 52) - 1)
_ONE_BITS = np.float64(1.0).view(_U64)

# Schubfach's g(k) = floor(10**-k / 2**r) + 1 with 2**125 <= g < 2**126,
# for every decimal exponent k a normal float64 needs, as the 32-bit
# halves of its high and low 63 bits
_K_MIN, _K_MAX = -324, 292


def _g_halves() -> tuple[np.ndarray, ...]:
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913124641741) >> 38) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        if r >= 0:
            den <<= r
        else:
            num <<= -r
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    g1, g0 = np.array(g1, dtype=_U64), np.array(g0, dtype=_U64)
    return g1, g1 >> _U64(32), g1 & _M32, g0, g0 >> _U64(32), g0 & _M32


_G = _g_halves()
_P10 = np.array([10 ** i for i in range(19)], dtype=_U64)

# the four ASCII digits of 0 .. 9999, one uint32 each
_V = np.arange(10000)
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint8)
_QUADS = np.hstack([_PAIRS.reshape(100, 2)[_V // 100], _PAIRS.reshape(100, 2)[_V % 100]]) \
    .view(np.uint32).ravel()
# an 18-digit number is written as five 4-digit chunks, the first with two
# leading zeros; by chunk j, and by its value, how many of the 18 digits
# run up to the chunk's last nonzero one (0 for a zero chunk)
_LAST = 4 - (_V % 10 == 0) - (_V % 100 == 0) - (_V % 1000 == 0)
_UPTO = np.where(_V > 0, _LAST + 4 * np.arange(5)[:, None] - 2, 0)
# "e", the exponent's sign and three digits and a newline, for exponents
# -400 .. 399, eight bytes each
_EXPONENT = np.frombuffer("".join(f"e{e:+04d}\n\0\0" for e in range(-400, 400)).encode(),
                          dtype=np.uint64)
# the bools of eight slots whose last m are kept, for m = 0 .. 8
_TAIL = np.frombuffer(b"".join(bytes(8 - m) + bytes([1]) * m for m in range(9)), dtype=_U64)

# One value's text is laid out in WIDTH byte slots, which a separator
# leads.  With z = "0000" followed by the 18 digits, repr's text is
# z[ib:ie] "." z[fb:fe] (the point left out of a one-digit mantissa in
# scientific notation), then the exponent.  Each of the two z[2:22] copies
# is the five chunks' text:
#   0 ","   3 "-"   4..23 z[2:22]   26 "."   27 z[1]   28..47 z[2:22]
#   48 "e"   49..52 the exponent's sign and three digits   53 newline
WIDTH = 56
_NEWLINE = 53
TEMPLATE = np.zeros(WIDTH, dtype=np.uint8)
TEMPLATE[[0, 3, 26, 27]] = np.frombuffer(b",-.0", dtype=np.uint8)
# the slots of both z copies, where the fallback writes repr's text
_TEXT_SLOTS = np.r_[4:24, 28:48]


def _layouts() -> np.ndarray:
    """The slots kept, as WIDTH // 8 uint64 words of bools, by layout code:
    2 * (17 * (decpt + 3) + nd - 1) + neg for decpt -3 .. 16 in fixed
    notation, then from 680 on 680 + 2 * (2 * (nd - 1) + wide) + neg in
    scientific notation.  decpt is the value's 0.d1d2..dnd * 10**decpt,
    nd its digit count, and wide an exponent of three digits.  The newline
    is never kept here."""
    fixed, sci = np.arange(680), np.arange(68)
    decpt, nd = fixed // 34 - 3, fixed // 2 % 17 + 1
    s_nd = sci // 4 + 1
    ib = np.append(4 - (decpt <= 0), np.full(68, 4))
    ie = np.append(4 + np.maximum(decpt, 0), np.full(68, 5))
    fb = np.append(4 + decpt, np.full(68, 5))
    fe = np.append(4 + np.maximum(nd, decpt + 1), 4 + s_nd)
    z = np.arange(2, 22)
    keep = np.zeros((748, WIDTH), dtype=bool)
    keep[:, 0] = True
    keep[:, 3] = np.append(fixed, sci) % 2 == 1
    keep[:, 4:24] = (ib[:, None] <= z) & (z < ie[:, None])
    keep[:, 26] = np.append(np.ones(680, bool), s_nd > 1)
    keep[:, 27] = (fb <= 1) & (1 < fe)
    keep[:, 28:48] = (fb[:, None] <= z) & (z < fe[:, None])
    keep[680:, [48, 49, 51, 52]] = True
    keep[680:, 50] = sci // 2 % 2 == 1
    return keep.view(np.uint64)


_KEEP = _layouts()


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of a * b from the 32-bit halves of a < 2**63 and
    b < 2**60, which keep every partial sum below 2**64."""
    cross = ((a_lo * b_lo) >> _U64(32)) + a_hi * b_lo + a_lo * b_hi
    return a_hi * b_hi + (cross >> _U64(32))


def _round_odd(y1, y0, x1):
    """Schubfach's rop, cp * g / 2**127 rounded to odd, from the 128-bit
    g1 * cp = y1 * 2**64 + y0 and the high half x1 of g0 * cp."""
    z = (y0 >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _nudged(products, g1, g0, j, up: bool):
    """The (y1, y0, x1) of (cp + 2**j) * g, or of (cp - 2**j) * g when not
    up, from products = (y1, y0, x1, x0) of cp * g: g1 << j and g0 << j
    added to or taken from g1 * cp and g0 * cp as 128-bit numbers."""
    y1, y0, x1, x0 = products
    back = _U64(64) - j
    lo1, lo0 = g1 << j, g0 << j
    if up:
        y0 = y0 + lo1
        x0 = x0 + lo0
        return y1 + (g1 >> back) + (y0 < lo1), y0, x1 + (g0 >> back) + (x0 < lo0)
    return y1 - (g1 >> back) - (y0 < lo1), y0 - lo1, x1 - (g0 >> back) - (x0 < lo0)


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f * 10**k the shortest decimal of each positive normal
    float's bits, as Schubfach picks it."""
    q = (bits >> _U64(52)).view(np.int64) - 1075
    t = bits & _T_MASK
    c = t | _U64(1 << 52)
    irregular = (t == 0) & (q > -1074)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).view(_U64)
    g1, g1_hi, g1_lo, g0, g0_hi, g0_lo = (table.take(k - _K_MIN) for table in _G)
    # vb, vbl and vbr are cp * g / 2**127 rounded to odd for cp = 4c << h
    # and for cp one half-ulp away on either side: (4c +- 2) << h, or
    # (4c - 1) << h below a power of two
    cp = c << (h + _U64(2))
    cp_hi, cp_lo = cp >> _U64(32), cp & _M32
    products = (_mulhi(g1_hi, g1_lo, cp_hi, cp_lo), g1 * cp,
                _mulhi(g0_hi, g0_lo, cp_hi, cp_lo), g0 * cp)
    vb = _round_odd(*products[:3])
    vbl = _round_odd(*_nudged(products, g1, g0, h + _U64(1) - irregular, False))
    vbr = _round_odd(*_nudged(products, g1, g0, h + _U64(1), True))
    out = c & _U64(1)
    s = vb >> _U64(2)
    # a candidate one digit shorter, when exactly one of its two neighbours
    # lies in the rounding interval
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl + out <= sp10 << _U64(2)
    wpin = (tp10 << _U64(2)) + out <= vbr
    shorter = (s >= _U64(100)) & (upin != wpin)
    # else s or s + 1: the one in the interval, else the closer one, and on
    # a tie the even one
    mid = (s << _U64(2)) + _U64(2)
    uin = vbl + out <= s << _U64(2)
    win = mid + _U64(2) + out <= vbr
    low = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U64(1)) == 0)))
    return np.where(shorter, np.where(upin, sp10, tp10), s + ~low), k


def repr_slots(values: np.ndarray, slots: np.ndarray, keep: np.ndarray) -> None:
    """Lay out repr(v) for each v of the 1-d float64 array values in its
    row of the (n, WIDTH) uint8 slots, which hold TEMPLATE's bytes, and set
    its row of the (n, WIDTH) bool keep to the slots its text is made of,
    its separator first."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U64)
    magnitude = bits & _M63
    zero = magnitude == 0
    normal = magnitude - _U64(1 << 52) < _U64((0x7FF << 52) - (1 << 52))
    f, k = _decimal(np.where(normal, magnitude, _ONE_BITS))
    n = np.searchsorted(_P10, f, side="right")
    decpt = n + k
    # f left-aligned in 18 digits, as five 4-digit chunks
    full = (f * _P10.take(18 - n)).view(np.int64)
    chunks = [None] * 5
    for j in range(4, 0, -1):
        rest = full // 10000
        chunks[j] = full - rest * 10000
        full = rest
    chunks[0] = np.where(zero, 0, full)
    words = slots.view(np.uint32)
    nd = np.ones(n.shape, dtype=np.int64)
    for j, chunk in enumerate(chunks):
        text = _QUADS.take(chunk)
        words[:, 1 + j] = text
        words[:, 7 + j] = text
        np.maximum(nd, _UPTO[j].take(chunk), out=nd)
    slots.view(_U64)[:, 6] = _EXPONENT.take(decpt + 399)
    sci = (decpt <= -4) | (decpt > 16)
    code = np.where(sci, 676 + 4 * nd + 2 * (np.abs(decpt - 1) >= 100),
                    34 * decpt + 2 * nd + 100) + (bits >> _U64(63)).view(np.int64)
    keep.view(_U64)[...] = _KEEP.take(code, axis=0)
    for i in np.flatnonzero(~(normal | zero)):
        text = np.frombuffer(repr(float(values[i])).encode(), dtype=np.uint8)
        slots[i, _TEXT_SLOTS[:len(text)]] = text
        keep[i, 1:] = False
        keep[i, _TEXT_SLOTS[:len(text)]] = True


#: The values laid out per block of csv_rows: its arrays stay small.
BLOCK_VALUES = 4096


def csv_rows(start: int, table: np.ndarray) -> str:
    """The rows "i,v0,..,v{c-1}\\n" for i = start, start + 1, ... and the
    rows of the (m, c) float64 table, every value written as repr writes
    it, laid out BLOCK_VALUES values at a time."""
    m, c = table.shape
    if m == 0:
        return ""
    # each value's slots follow room for a row index, in whole uint64
    # words; the first value of a row writes its index there
    prefix = 8 * -(-len(str(start + m - 1)) // 8)
    block = min(m, max(1, BLOCK_VALUES // c))
    slots = np.tile(np.concatenate([np.zeros(prefix, np.uint8), TEMPLATE]), (block * c, 1))
    keep = np.zeros(slots.shape, dtype=bool)
    index_text = slots[::c, :prefix].view(np.uint32)
    index_kept = keep[::c, :prefix].view(_U64)
    texts = []
    for lo in range(0, m, block):
        b = min(block, m - lo)
        index = np.arange(start + lo, start + lo + b)
        for j in range(prefix // 4):
            index_text[:b, -1 - j] = _QUADS.take(index // 10 ** (4 * j) % 10000)
        digits = np.searchsorted(_P10[1:], index.view(_U64), side="right") + 1
        for j in range(prefix // 8):
            index_kept[:b, -1 - j] = _TAIL.take(np.clip(digits - 8 * j, 0, 8))
        repr_slots(table[lo:lo + b].ravel(), slots[:b * c, prefix:], keep[:b * c, prefix:])
        keep[c - 1:b * c:c, prefix + _NEWLINE] = True
        texts.append(slots[:b * c][keep[:b * c]].tobytes().decode("ascii"))
    return "".join(texts)
