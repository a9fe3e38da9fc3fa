"""CSV rows of ``'%.17g'`` numbers, formatted with numpy.

``format_rows(table, out)`` writes each row of a 2-D table as the
``'%.17g'`` strings of its values, joined by commas and ended by a newline:
byte for byte what ``','.join(['%.17g'] * ncols) % row`` gives. The text is
built a block of about ``_BLOCK`` values at a time, so a block's arrays stay
well under 1 MB whatever the table's size.

Digits. ``'%.17g' % x`` prints D * 10**(X - 16), with D the correctly
rounded 17-digit integer in [10**16, 10**17) and X its decimal exponent, in
fixed notation when -4 <= X <= 16 and in exponent notation otherwise. X is
the exponent after rounding: X >= k + 1 exactly when |x| >= T_k =
(10**17 - 1/2) * 10**(k - 16). No T_k is a double (for k >= 16 its odd
factor needs 58 bits, for k < 16 its denominator keeps a factor 5), so the
comparison with B_k, the smallest double above T_k, is exact. A binary
octave [2**e, 2**(e+1)) holds at most one T_k, so X is the X of the
octave's start, plus one if |x| >= the next B_k: two lookups by the
exponent bits and one comparison, on the bits, which order non-negative
doubles as their values. With s = 16 - X, y = |x| * 10**s lies in
[10**16 - 1/20, 10**17 - 1/2) and D = round(y), half to even.

Error bound. The table holds hi = fl(10**s) and lo = fl(10**s - hi), so
10**s = hi + lo + d with |lo| <= 2**-53 hi and |d| <= 2**-53 |lo| + 2**-1075.
Dekker's product of |x| and hi, both split into halves of 26 bits, gives
p + e = |x| * hi exactly, with p = fl(|x| * hi); p > 2**53, so p is an
integer, and |e| <= ulp(p)/2 <= 8 since p < 2**57. Then q = fl(|x| * lo),
with |x * lo| <= 2**-53 * 1.0001e17 < 12, errs by at most 2**-50, and
r = fl(e + q), with |e + q| < 20 < 32, adds at most 2**-49. The remainder
d adds |x| * |d| <= 2**-106 * 1.0001e17 + 1e291 * 2**-1075 < 2**-49.5. So
y = p + r + eta with

    |eta| <= 2**-49.5 + 2**-50 + 2**-49 < 2**-47,

and the integer nearest to r (adding and subtracting 1.5 * 2**52 rounds
|r| < 2**51 to it exactly, half to even) is round(y) - p unless r lies
within 2**-47 of a half-integer. The guard sends every value whose r lies
within 2**-40 of a half-integer to ``'%.17g'``. It also takes the
non-finite values, the subnormals and every x whose X lies outside
[_X_LO, _X_HI]; that range keeps each step above clear of overflow and
underflow: 134217729 |x| < 1.4e299, 10**s <= 1e306, lo is normal, and each
non-zero partial product of Dekker's sum exceeds 1e-17. Zeros are written
as ``0`` and ``-0``.

Layout. Each value gets a cell of six int64 words, 48 bytes in text order.
Word 0 holds the sign, the ``0.000`` prefix of -4 <= X <= -1, the lead
digit and a point; words 1-4 the other 16 digits, from a 10,000-entry
table of 4-digit chunks in which every digit is followed by a point; word 5
``e±XX`` and the separator. One AND mask, chosen by the form (exponent
notation, X < 0, or fixed with X >= 0) and the index of the last non-zero
digit, keeps the digits to print and the one point that belongs, after
digit X or after the lead in exponent notation. Every other byte becomes 0,
and ``bytes.translate`` deletes them. The tables are built at import from
100-entry ones, in plain Python, about 0.2 MB in all.
"""

from __future__ import annotations

import math

import numpy as np

_X_LO, _X_HI = -290, 290
_BLOCK = 2048
_TIE = 2.0 ** -40
_SPLIT = 134217729.0            # 2**27 + 1, Veltkamp's splitter
_ROUND = 1.5 * 2.0 ** 52


def _powers():
    """hi, lo of 10**s for s = 16 - X over the range, and hi split by
    Veltkamp into two halves of at most 26 bits each."""
    tables = [], [], [], []
    for x in range(_X_LO, _X_HI + 1):
        s = 16 - x
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den
        n, d = hi.as_integer_ratio()
        m, e = math.frexp(hi)
        c = m * _SPLIT
        head = c - (c - m)
        for table, v in zip(tables, (hi, math.ldexp(head, e),
                                     math.ldexp(m - head, e),
                                     (num * d - n * den) / (den * d))):
            table.append(v)
    return [np.array(t) for t in tables]


def _octaves():
    """Per exponent field: the table index of X for |x| at or above the
    first B_k above the octave's start (one less below it), and the bits
    of that B_k."""
    top = 2 * 10 ** 17 - 1                  # T_k = top * 10**(k-16) / 2
    bounds = []
    for k in range(_X_LO - 1, _X_HI + 1):
        num, den = ((top * 10 ** (k - 16), 2) if k >= 16
                    else (top, 2 * 10 ** (16 - k)))
        b = num / den
        n, d = b.as_integer_ratio()
        bounds.append(math.nextafter(b, math.inf) if n * den < num * d else b)
    bounds.append(math.inf)
    index, following, j = [], [], 0
    for field in range(2048):
        start = math.ldexp(1.0, field - 1023) if field < 2047 else math.inf
        while bounds[j] <= start and j < len(bounds) - 1:
            j += 1
        index.append(j)
        following.append(bounds[j])
    return np.array(index), np.array(following).view(np.int64)


def _digit_tables():
    """4-digit chunks as digit and point bytes, one int64 word each, and per
    chunk position m the index 4m + 1..4m + 4 of the chunk's last non-zero
    digit, 0 for a zero chunk."""
    two = [bytes((48 + a // 10, 46, 48 + a % 10, 46)) for a in range(100)]
    chunks = b"".join([b"".join([hi + lo for lo in two]) for hi in two])
    last2 = [0] + [2 if b % 10 else 1 for b in range(1, 100)]
    last = bytes(2 + last2[b] if b else last2[a]
                 for a in range(100) for b in range(100))
    shifted = b"".join(
        last.translate(bytes([0, *range(4 * m + 1, 4 * m + 5)]) + bytes(251))
        for m in range(4))
    return np.frombuffer(chunks, np.int64), np.frombuffer(shifted, np.int8)


def _layout_tables():
    """Per X the prefix words by sign, the exponent word and the form's row
    offset into the masks; the masks by (form, last non-zero digit) as five
    rows of words; the lead digit and separator words."""
    nx = _X_HI - _X_LO + 1
    prefix, expo = bytearray(16 * nx), bytearray(8 * nx)
    form = []
    for i, x in enumerate(range(_X_LO, _X_HI + 1)):
        prefix[16 * i + 8] = ord("-")
        if -4 <= x < 0:
            text = ("0." + "0" * (-x - 1)).encode()
            prefix[16 * i + 1:16 * i + 1 + len(text)] = text
            prefix[16 * i + 9:16 * i + 9 + len(text)] = text
            form.append(1)
        elif 0 <= x <= 16:
            form.append(2 + x)
        else:
            text = b"e%+03d" % x
            expo[8 * i:8 * i + len(text)] = text
            form.append(0)
    # form 0: exponent notation, 1: 0.000ddd, 2 + X: fixed with X >= 0.
    # Digit j in 1..16 sits at byte 2 * ((j-1) % 4) of word 1 + (j-1) // 4
    # and its slot one byte further; the lead's slot is word 0, byte 7.
    keys = 19 * 17
    mask = bytearray(5 * keys * 8)
    for f in range(19):
        for z in range(17):
            row = f * 17 + z
            mask[8 * row:8 * row + 7] = b"\xff" * 7
            kept = max(z, f - 2) if f >= 2 else z
            for j in range(1, kept + 1):
                w = 1 + (j - 1) // 4
                mask[8 * (w * keys + row) + 2 * ((j - 1) % 4)] = 0xFF
            point = {0: 0, 1: 17}.get(f, f - 2)
            if z > point:
                w = 0 if point == 0 else 1 + (point - 1) // 4
                b = 7 if point == 0 else 2 * ((point - 1) % 4) + 1
                mask[8 * (w * keys + row) + b] = 0xFF
    lead = b"".join(bytes((0,) * 6 + (48 + d, 46)) for d in range(10))
    return (np.frombuffer(prefix, np.int64), np.frombuffer(expo, np.int64),
            np.array(form) * 17, np.frombuffer(mask, np.int64).reshape(5, keys),
            np.frombuffer(lead, np.int64),
            np.frombuffer(b"\0" * 7 + b"," + b"\0" * 7 + b"\n", np.int64))


_HI, _HH, _HL, _LO = _powers()
_OCT_I, _OCT_NEXT = _octaves()
_CHUNK, _LAST = _digit_tables()
_PREFIX, _EXPO, _FORM, _MASK, _LEAD, _SEP = _layout_tables()
_SPAN = _X_HI - _X_LO


def _cells(vals: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """The (n, 6) int64 cells of a 1-D float64 block; sep per value."""
    n = vals.size
    bits = vals.view(np.int64)
    ab = bits & 0x7FFFFFFFFFFFFFFF       # |x| as bits, ordered as |x|
    field = ab >> 52
    i = _OCT_I.take(field)
    i += (ab - _OCT_NEXT.take(field)) >> 63
    ax = ab.view(np.float64)
    odd = (i < 0) | (i > _SPAN)          # zeros, subnormals, far, non-finite
    zero = ax == 0
    if odd.any():
        ax[odd] = 1.0
        i[odd] = -_X_LO
    # y = ax * 10**s = p + r + eta, |eta| < 2**-47 (module docstring)
    hh, hl = _HH.take(i), _HL.take(i)
    p = ax * _HI.take(i)
    c = ax * _SPLIT
    xh = c - (c - ax)
    xl = np.subtract(ax, xh, out=c)
    r = xh * hh
    r -= p
    np.multiply(xl, hh, out=hh)
    r += hh
    np.multiply(xh, hl, out=hh)
    r += hh
    np.multiply(xl, hl, out=hh)
    r += hh
    np.multiply(ax, _LO.take(i), out=hh)
    r += hh
    np.add(r, _ROUND, out=hh)           # |r| < 32: adding 1.5 * 2**52
    hh -= _ROUND                        # rounds r to an integer, half to even
    r -= hh
    tie = (r > 0.5 - _TIE) | (r < _TIE - 0.5)
    d = p.astype(np.int64)
    d += hh.astype(np.int64)
    # digits: the lead, then four chunks of four
    high = d // 10 ** 8
    d -= high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    lead[zero] = 0
    c0, c2 = high // 10 ** 4, d // 10 ** 4
    chunks = (c0, high - c0 * 10 ** 4, c2, d - c2 * 10 ** 4)
    z = _LAST.take(chunks[0])            # index of the last non-zero digit
    for m in range(1, 4):
        np.maximum(z, _LAST.take(chunks[m] + 10000 * m), out=z)
    z = _FORM.take(i) + z                # the mask column
    cells = np.empty((n, 6), np.int64)
    w0 = cells[:, 0]
    row = i + i
    row -= bits >> 63                    # the prefix row: by X and sign
    np.bitwise_or(_PREFIX.take(row), _LEAD.take(lead), out=w0)
    w0 &= _MASK[0].take(z)
    for m in range(4):
        np.bitwise_and(_CHUNK.take(chunks[m]), _MASK[m + 1].take(z),
                       out=cells[:, m + 1])
    np.bitwise_or(_EXPO.take(i), sep, out=cells[:, 5])
    redo = np.flatnonzero((odd & ~zero) | tie)
    if redo.size:
        text = cells.view(np.uint8).reshape(n, 48)
        for k in redo:
            s = ("%.17g" % vals[k]).encode()
            text[k, :47] = np.frombuffer(s.ljust(47, b"\0"), np.uint8)
    return cells


def format_rows(table: np.ndarray, out) -> None:
    """Write the rows of a 2-D table of floats to the binary stream ``out``."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, ncols = table.shape
    step = max(1, _BLOCK // ncols)
    sep = _SEP.take([0] * (ncols - 1) + [1])
    for r0 in range(0, rows, step):
        block = table[r0:r0 + step]
        cells = _cells(block.reshape(-1), np.tile(sep, len(block)))
        out.write(cells.tobytes().translate(None, b"\0"))
