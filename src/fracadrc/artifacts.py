"""Artifact file formats shared by every writer in the package.

CSV tables, all written by `write_rows` or `write_csv`, are a header line
and a line of comma-joined cells per row.  A float cell is the text Python's
`repr` gives its double: the shortest digit string that reads back as the
same double (of two such strings the nearer, of two equally near the one
with the even last digit), in fixed notation when the decimal point falls at
-4 < decpt <= 16 and as d.ddde±XX otherwise.  One numpy kernel makes those
cells a block at a time, with no Python object per cell: the digits come from
the Schubfach shortest-digit step (R. Giulietti, "The Schubfach way to render
doubles", 2020) in 64-bit integer arithmetic, trying the one-digit-shorter
candidate whenever the digits number two or more, as Python's shortest
rule does; the text is laid out in 8-byte words.  JSON documents are
indented with sorted keys and end in a newline.  Both are deterministic, so
a re-run with the same inputs rewrites the same bytes.
"""

from __future__ import annotations

import json

import numpy as np


# rows per block: a block's cells are formatted together, so this bounds
# the writer's memory
CSV_BLOCK_ROWS = 512


def _u(value):
    """`value` as a uint64 array, 0-d for a number.  A ufunc takes one
    faster than a scalar, and uint64 arithmetic with one stays uint64 under
    numpy 1.x's value-based promotion too."""
    return np.array(value, dtype=np.uint64)


def _i(value):
    """`value` as an intp array, for the same speed."""
    return np.array(value, dtype=np.intp)


_U0, _U1, _U2, _U3, _U4, _U8, _U10, _U16, _U20, _U32, _U40, _U56, _U64 = map(
    _u, (0, 1, 2, 3, 4, 8, 10, 16, 20, 32, 40, 56, 64))
_I1, _I3, _I17, _I18, _I22, _I52, _I63 = map(
    _i, (1, 3, 17, 18, 22, 52, 63))
_LOW32 = _u(0xFFFFFFFF)
_NOT3 = _u(~3 & (2**64 - 1))
_FRAC = _u((1 << 52) - 1)
_ABS = _u((1 << 63) - 1)
# |bits| - 1 of the smallest infinity: a zero wraps round above it too
_INF_1 = _u((0x7FF << 52) - 1)
# decimal exponents e whose 10**e the digit step multiplies by
_E10_MIN, _E10_MAX = -292, 324
# the decimal-point positions written in fixed notation; the layout class
# of a cell is its decpt clipped to one beyond them, less the lower clip
_FIXED_MIN, _FIXED_MAX = -3, 16
_DCLASS_MIN, _DCLASS_MAX = _i(_FIXED_MIN - 1), _i(_FIXED_MAX + 1)
_DCLASSES = _FIXED_MAX - _FIXED_MIN + 3
_EXP_OFFSET = _i(330)           # decpt lies in [-323, 309]
# index and bias of a double's exponent; the table rows of a double whose
# fraction bits are all zero follow those of the others
_EXPONENT_BITS, _CLOSER_ROWS, _BIAS = _i(0x7FF), _i(2048), _i(1023)
_E9 = _u(10**9)
# digits before each digit word, plus one
_WORD_DIGITS = _i([[1], [9], [17]])
# "0" in each byte of the digit words (the third has one digit)
_ASCII_0 = _u([[0x3030303030303030], [0x3030303030303030], [0x30]])
# the steps of the 8-digit conversion: split by 10**4, then each lane by
# 100 (lane * 10486 >> 20) and by 10 (lane * 103 >> 10)
_E4, _SPLIT_E4 = _u(10000), _u((10000 << 32) - 1)
_DIV100, _LANES32 = _u(10486), _u(0x0000007F0000007F)
_SPLIT_E2 = _u((100 << 16) - 1)
_DIV10, _LANES16 = _u(103), _u(0x000F000F000F000F)
_SPLIT_E1 = _u((10 << 8) - 1)


def _word(text: bytes) -> int:
    """`text` (at most 8 bytes) as a word whose low byte is its first."""
    return int.from_bytes(text, "little")


def _digit_tables():
    """Per-exponent constants of the digit step, indexed by the biased
    exponent, plus 2048 when the fraction bits are all zero.

    Rows 0-3 are the 32-bit limbs, low first, of g: 10**-k scaled into
    [2**127, 2**128) and rounded up, k being floor(log10(2**q)) (of
    3/4 * 2**q when the interval below the double is the shorter one).
    Row 4 is the hidden bit and row 5 the shift h + 2 that put the double,
    times 4, where the top 64 bits of its 192-bit product with g are its
    value times 4 / 10**k; rows 6 and 7 the shifts of g that are the
    distances to the upper and lower ends of its rounding interval.  Also
    returns k.
    """
    tens = [1]
    for _ in range(max(-_E10_MIN, _E10_MAX)):
        tens.append(tens[-1] * 10)
    g = [(1 << (127 + n.bit_length())) // n for n in tens[-_E10_MIN:0:-1]]
    g += [n << 128 >> n.bit_length() for n in tens[: _E10_MAX + 1]]
    limbs = np.frombuffer(b"".join((v + 1).to_bytes(16, "little") for v in g),
                          dtype="<u4").reshape(-1, 4).T.astype(np.uint64)
    be = np.arange(4096) % 2048
    closer = (np.arange(4096) >= 2048) & (be > 1)
    q = np.maximum(be, 1) - 1075
    k = (q * 1262611 - closer * 524031) >> 22
    h = q + ((-k * 1741647) >> 19) + 1
    table = np.empty((8, 4096), dtype=np.uint64)
    table[:4] = limbs[:, -k - _E10_MIN]
    table[4] = np.where(be > 0, 1 << 52, 0).astype(np.uint64) << (
        h + 2).astype(np.uint64)
    table[5] = h + 2
    table[6] = h + 1
    table[7] = h + 1 - closer
    return table, k


def _layout_tables():
    """Word tables of the text layout.

    Each cell is four words: sign and "0.000" prefix, then the digit string
    with its decimal point (18 bytes), then the exponent suffix and the
    separator in the last word's top six bytes.  For each of the three
    digit words, indexed by dclass * 18 + nd (nd significant digits): the
    mask of the digits before the point, the point, and the mask of the
    bytes kept.  Also the prefix word by dclass + 22 for a negative double,
    and the exponent word by decpt + _EXP_OFFSET.
    """
    dclass, nd = np.divmod(np.arange(_DCLASSES * 18), 18)
    decpt = dclass + _DCLASS_MIN
    fixed = (_FIXED_MIN <= decpt) & (decpt <= _FIXED_MAX)
    # byte index of the point, 24 for none
    point = np.where(fixed, np.where(decpt >= 1, decpt, 24),
                     np.where(nd > 1, 1, 24))
    length = np.where(fixed, np.where(decpt >= 1,
                                      np.maximum(nd, decpt + 1) + 1, nd),
                      nd + (nd > 1))
    byte = np.arange(24).reshape(3, 1, 8)
    shift = (8 * np.arange(8)).astype(np.uint64)
    lanes = np.uint64(0xFF) << shift
    layout = np.stack([
        ((byte < point[:, None]) * lanes).sum(axis=-1, dtype=np.uint64),
        ((byte == point[:, None]) * (np.uint64(ord(".")) << shift)).sum(
            axis=-1, dtype=np.uint64),
        ((byte < length[:, None]) * lanes).sum(axis=-1, dtype=np.uint64)],
        axis=1)
    prefix = np.zeros(_DCLASSES, dtype=np.uint64)
    for decpt in range(_FIXED_MIN, 1):
        prefix[decpt - _DCLASS_MIN] = _word(b"\0" + b"0." + b"0" * -decpt)
    prefix = np.concatenate([prefix, prefix | np.uint64(ord("-"))])
    exponent = np.frombuffer(b"".join(
        (b"" if _FIXED_MIN <= decpt <= _FIXED_MAX
         else b"\0\0e%+03d" % (decpt - 1)).ljust(8, b"\0")
        for decpt in range(-int(_EXP_OFFSET), 320)), dtype="<u8")
    exponent = exponent.astype(np.uint64)
    return layout, prefix, exponent


def _length_tables():
    """Digit count of an integer 1 <= m < 10**17 from the biased exponent
    of float(m): `count[e]`, plus one if m >= `bound[e]` (at most one power
    of ten lies in each binade).  Index 0 serves m = 0, as one digit."""
    count = np.ones(1080, dtype=np.intp)
    bound = np.full(1080, 10, dtype=np.uint64)
    for j in range(57):
        count[1023 + j] = len(str(1 << j))
        bound[1023 + j] = 10 ** count[1023 + j]
    return count, bound


_DIGIT_TABLE, _K = _digit_tables()
_LAYOUT, _PREFIX, _EXPONENT = _layout_tables()
_COUNT, _BOUND = _length_tables()
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)


class _CellFormatter:
    """Formats blocks of at most `size` doubles as CSV cells, each followed
    by its separator byte, into one bytes object per block; the work arrays
    are allocated once and reused for every block."""

    def __init__(self, size: int):
        # each cell's table constants, then work rows
        self._table = np.empty((8, size), dtype=np.uint64)
        self._work = np.empty((8, size), dtype=np.uint64)
        self._index = np.empty((2, size), dtype=np.intp)
        self._flag = np.empty((5, size), dtype=bool)
        self._words = np.empty((size, 4), dtype=np.uint64)

    def _shortest(self, bits):
        """Table row 2 = the shortest digits and index row 1 = the power
        of ten k of each finite nonzero double, digits * 10**k its value."""
        n = bits.size
        table = self._table[:, :n]
        a0, a1, b2, b3, hidden, shift, up, down = table
        cp, c0, c1, acc, p, t, w0, w1 = self._work[:, :n]
        idx, k = self._index[:, :n]
        zero_frac, odd, up_in, wp_in, short = self._flag[:, :n]
        np.right_shift(bits.view(np.int64), _I52, out=idx)
        idx &= _EXPONENT_BITS
        np.bitwise_and(bits, _FRAC, out=cp)
        np.equal(cp, _U0, out=zero_frac)
        np.multiply(zero_frac, _CLOSER_ROWS, out=k)
        idx += k
        _DIGIT_TABLE.take(idx, axis=1, out=table, mode="clip")
        _K.take(idx, out=k, mode="clip")
        np.bitwise_and(cp, _U1, out=t)
        np.not_equal(t, _U0, out=odd)
        np.left_shift(cp, shift, out=cp)
        cp |= hidden

        # the 192-bit product g * cp as words w0, w1, acc, from the 32-bit
        # limbs: acc carries each 32-bit column into the next
        np.right_shift(cp, _U32, out=c1)
        np.bitwise_and(cp, _LOW32, out=c0)
        np.multiply(a0, c0, out=acc)
        np.bitwise_and(acc, _LOW32, out=w0)
        acc >>= _U32
        np.multiply(a1, c0, out=p)
        np.bitwise_and(p, _LOW32, out=t)
        acc += t
        np.multiply(a0, c1, out=t)
        acc += t
        np.left_shift(acc, _U32, out=t)
        w0 |= t
        acc >>= _U32
        p >>= _U32
        acc += p
        np.multiply(b2, c0, out=p)
        np.bitwise_and(p, _LOW32, out=t)
        acc += t
        np.multiply(a1, c1, out=t)
        acc += t
        np.bitwise_and(acc, _LOW32, out=w1)
        acc >>= _U32
        p >>= _U32
        acc += p
        np.multiply(b3, c0, out=p)
        np.bitwise_and(p, _LOW32, out=t)
        acc += t
        np.multiply(b2, c1, out=t)
        acc += t
        np.left_shift(acc, _U32, out=t)
        w1 |= t
        acc >>= _U32
        p >>= _U32
        acc += p
        np.multiply(b3, c1, out=t)
        acc += t
        # rounded to odd: the top word, odd if the middle one exceeds 1
        vb, vbr, vbl = cp, hidden, shift
        np.greater(w1, _U1, out=up_in)
        np.bitwise_or(acc, up_in, out=vb)
        # the interval's ends: g * cp plus and minus g shifted by each
        # end's distance, carried or borrowed up from w0
        np.left_shift(a1, _U32, out=c0)
        c0 |= a0
        np.left_shift(b3, _U32, out=c1)
        c1 |= b2
        self._end(up, vbr, True)
        self._end(down, vbl, False)

        # Schubfach's choice, with the ends scaled by 4 like vb; an odd
        # significand leaves both ends out
        vbl += odd
        vbr -= odd
        s, sp = b2, b3
        np.right_shift(vb, _U2, out=s)
        np.floor_divide(s, _U10, out=sp)
        np.multiply(sp, _U40, out=t)
        np.less_equal(vbl, t, out=up_in)
        t += _U40
        np.less_equal(t, vbr, out=wp_in)
        np.not_equal(up_in, wp_in, out=short)
        np.greater_equal(s, _U10, out=up_in)
        short &= up_in
        # the one-digit-shorter candidate sp or sp + 1 where exactly one of
        # them is inside (Python tries it from two digits on)
        sp += wp_in
        # otherwise s or s + 1: the one inside, or the nearer, ties even
        u_in, w_in, rnd = up_in, wp_in, odd
        np.bitwise_and(vb, _NOT3, out=t)
        np.less_equal(vbl, t, out=u_in)
        t += _U4
        np.less_equal(t, vbr, out=w_in)
        np.not_equal(u_in, w_in, out=u_in)
        np.bitwise_and(vb, _U3, out=t)
        np.bitwise_and(s, _U1, out=vbl)
        t += vbl
        np.greater(t, _U2, out=rnd)
        # rnd, or w_in where u_in; then sp where short
        np.bitwise_xor(rnd, w_in, out=w_in)
        w_in &= u_in
        rnd ^= w_in
        s += rnd
        np.subtract(sp, s, out=sp)
        sp *= short
        s += sp
        k += short

    def _end(self, shift, out, upper):
        """out = one end of the rounding interval, scaled and rounded to
        odd like vb: the product words w0, w1, acc plus (upper) or minus
        the words c0, c1 of g shifted left by `shift` (1 to 5)."""
        n = out.size
        rshift, m = self._table[:2, :n]
        _, c0, c1, acc, p, t, w0, w1 = self._work[:, :n]
        _, _, f1, f2, f3 = self._flag[:, :n]
        np.subtract(_U64, shift, out=rshift)
        np.left_shift(c0, shift, out=p)
        np.left_shift(c1, shift, out=t)
        np.right_shift(c0, rshift, out=m)
        t |= m
        if upper:
            np.add(w0, p, out=m)
            np.less(m, p, out=f1)
            np.add(w1, t, out=m)
            np.less(m, t, out=f2)
            m += f1
            np.less(m, f1, out=f3)
            np.right_shift(c1, rshift, out=t)
            np.add(acc, t, out=out)
        else:
            np.less(w0, p, out=f1)
            np.less(w1, t, out=f2)
            np.subtract(w1, t, out=m)
            np.less(m, f1, out=f3)
            m -= f1
            np.right_shift(c1, rshift, out=t)
            np.subtract(acc, t, out=out)
        f2 |= f3
        if upper:
            out += f2
        else:
            out -= f2
        np.greater(m, _U1, out=f1)
        out |= f1

    def __call__(self, x, separators):
        """The cells of the doubles `x`, each followed by its byte of
        `separators` (the top byte of a uint64), as one bytes object."""
        n = x.size
        bits = x.view(np.uint64)
        self._shortest(bits)
        dig = self._table[2, :n]
        scaled, fl, ndig, d0, d1, d2, t0, t1 = self._work[:, :n]
        ndig = ndig.view(np.intp)
        e, decpt = self._index[:, :n]
        regular, flag = self._flag[:2, :n]
        # zeros and non-finite doubles go through as 0.0 (digits 0, decpt
        # 1); the non-finite ones are rewritten at the end
        np.bitwise_and(bits, _ABS, out=scaled)
        scaled -= _U1
        np.less(scaled, _INF_1, out=regular)
        dig *= regular

        # the digit count, and the digits as a 17-digit integer
        np.copyto(fl.view(np.float64), dig, casting="unsafe")
        np.right_shift(fl.view(np.int64), _I52, out=e)
        _COUNT.take(e, out=ndig, mode="clip")
        _BOUND.take(e, out=scaled, mode="clip")
        np.greater_equal(dig, scaled, out=flag)
        ndig += flag
        decpt += ndig
        decpt *= regular
        np.logical_not(regular, out=flag)
        decpt += flag
        np.subtract(_I17, ndig, out=e)
        _POW10.take(e, out=scaled, mode="clip")
        scaled *= dig

        # three digit words: digits 1-8, 9-16 and 17, one per byte, first
        # digit lowest
        np.floor_divide(scaled, _E9, out=d0)
        np.multiply(d0, _E9, out=t0)
        scaled -= t0
        np.floor_divide(scaled, _U10, out=d1)
        np.multiply(d1, _U10, out=d2)
        np.subtract(scaled, d2, out=d2)
        words = self._work[3:6, :n]
        self._eight_digits(words[:2], self._work[6:8, :n])

        # significant digits nd: up to the last nonzero digit, whose byte
        # is a word's top one, its float exponent // 8 (-128 for none)
        top = self._table[3:6, :n].view(np.intp)
        np.copyto(top.view(np.float64), words, casting="unsafe")
        top >>= _I52
        top -= _BIAS
        top >>= _I3
        top += _WORD_DIGITS
        nd = ndig
        np.maximum(top[0], top[1], out=nd)
        np.maximum(nd, top[2], out=nd)
        np.maximum(nd, _I1, out=nd)
        words += _ASCII_0

        # the layout class, and the four words of each cell
        dclass, code = e, self._table[0, :n].view(np.intp)
        np.maximum(decpt, _DCLASS_MIN, out=dclass)
        np.minimum(dclass, _DCLASS_MAX, out=dclass)
        dclass -= _DCLASS_MIN
        np.multiply(dclass, _I18, out=code)
        code += nd
        out = self._words[:n]
        sign = t0.view(np.intp)
        np.right_shift(bits.view(np.int64), _I63, out=sign)
        sign *= _I22
        np.subtract(dclass, sign, out=sign)
        _PREFIX.take(sign, out=out[:, 0], mode="clip")
        masks = self._table[3:6, :n]
        carry, lo, hi = (self._table[i, :n] for i in (1, 6, 7))
        for i, word in enumerate(words):
            # the point goes in at its byte, the digits from it on one up
            _LAYOUT[i].take(code, axis=1, out=masks, mode="clip")
            low, point, keep = masks
            np.bitwise_and(word, low, out=lo)
            np.bitwise_xor(word, lo, out=hi)
            np.left_shift(hi, _U8, out=word)
            if i:
                word |= carry
            word |= lo
            word |= point
            np.right_shift(hi, _U56, out=carry)
            np.bitwise_and(word, keep, out=out[:, i + 1] if i < 2 else word)
        decpt += _EXP_OFFSET
        _EXPONENT.take(decpt, out=carry, mode="clip")
        d2 |= carry
        np.bitwise_or(d2, separators, out=out[:, 3])
        if not regular.all():
            self._special(out, x, separators)
        # a word's low byte is its first, whatever the machine's byte order;
        # no cell has a NUL byte, so the zero bytes are the padding
        return out.astype("<u8", copy=False).tobytes().translate(None, b"\0")

    @staticmethod
    def _eight_digits(x, t):
        """Each x < 10**8 in place as its 8 digits, one per byte, first
        digit in the low byte (t is a work array of x's shape).

        Each step splits every lane into two half-width lanes, the quotient
        by 10**4, 100 or 10 in the low one: (x << w) - quotient * (m << w
        - 1) puts the remainder in the high one with no borrow.
        """
        np.floor_divide(x, _E4, out=t)
        x <<= _U32
        t *= _SPLIT_E4
        x -= t
        # a 4-digit lane * 10486 >> 20 is its quotient by 100
        np.multiply(x, _DIV100, out=t)
        t >>= _U20
        t &= _LANES32
        x <<= _U16
        t *= _SPLIT_E2
        x -= t
        # a 2-digit lane * 103 >> 10 is its quotient by 10
        np.multiply(x, _DIV10, out=t)
        t >>= _U10
        t &= _LANES16
        x <<= _U8
        t *= _SPLIT_E1
        x -= t

    @staticmethod
    def _special(out, x, separators):
        """Rewrite the cells of NaN and infinities as repr writes them."""
        for i in np.flatnonzero(~np.isfinite(x)):
            negative = np.isinf(x[i]) and x[i] < 0
            out[i] = (_word(b"-" if negative else b""),
                      _word(b"nan" if np.isnan(x[i]) else b"inf"), 0,
                      separators[i])


def float_cells(values) -> list[str]:
    """Each double of `values` as its CSV cell."""
    x = np.ascontiguousarray(values, dtype=float).ravel()
    if not x.size:
        return []
    separators = np.full(x.size, ord("\n") << 56, dtype=np.uint64)
    text = _CellFormatter(x.size)(x, separators).decode("ascii")
    return text.split("\n")[:-1]


def _write_table(path, header, blocks) -> None:
    """Write the `header` names as a line, then each block: bytes of whole
    lines, each ending in a newline."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            fh.write(block)


def write_rows(path, header, rows) -> None:
    """Write the `header` names, then each row of text cells, as CSV."""
    _write_table(path, header,
                 ["".join(",".join(row) + "\n" for row in rows).encode()])


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-D float columns under the names in `header`;
    raises ValueError, before opening the file, if the table is malformed."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if not columns or len(header) != len(columns):
        raise ValueError(f"CSV needs one name per column and at least one "
                         f"column, not {len(header)} names for "
                         f"{len(columns)} columns")
    for name, c in zip(header, columns):
        if c.ndim != 1:
            raise ValueError(f"column {name} is {c.ndim}-D, not 1-D")
        if c.size != columns[0].size:
            raise ValueError(f"column {name} has {c.size} rows, not the "
                             f"{columns[0].size} of column {header[0]}")
    rows, width = columns[0].size, len(columns)
    block = np.empty((min(rows, CSV_BLOCK_ROWS), width))
    separators = np.full(block.shape, ord(",") << 56, dtype=np.uint64)
    separators[:, -1] = ord("\n") << 56
    cells = _CellFormatter(block.size)

    def blocks():
        for i in range(0, rows, CSV_BLOCK_ROWS):
            m = min(CSV_BLOCK_ROWS, rows - i)
            for j, c in enumerate(columns):
                block[:m, j] = c[i : i + m]
            yield cells(block[:m].ravel(), separators[:m].ravel())

    _write_table(path, header, blocks())


def write_json(path, document) -> None:
    """Write `document` as indented JSON with sorted keys."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
