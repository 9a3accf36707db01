"""``repr`` of many finite float64 values at once, with numpy.

``reprs(values, lengths)`` gives, for each row of ``values`` (split by
``lengths``), the text between the brackets of ``json.dumps(row.tolist())``
as ASCII bytes: each entry's ``repr``, joined by ``", "``.

The shortest digits come from Ryu (Adams, PLDI 2018) on uint64 arrays. What
depends only on the binary exponent (the 125-bit power of five, the shift,
the decimal exponent, the trailing-zero tests) is read from tables indexed by
it. The one 53 x 125-bit product per value is formed from 32-bit limbs; the
interval ends vp and vm add and subtract the multiplier before the shift.
Ryu's digit-removal loop becomes four tests with scalar divisors and, for the
few values that drop more digits, a binary search over powers of ten. The
text follows ``float.__repr__``: positional when -4 < decpt <= 16, else
``d.ddde+XX``. Each value is laid out in a fixed-width byte row padded with
NULs, and one pass over the bytes drops the NULs.

Integer arrays are explicitly uint64 or int64 (numpy promotes a mix of the
two to float64), and no shift reaches 64 bits.
"""

import numpy as np

_U64, _I64 = np.uint64, np.int64
_MASK32 = 0xFFFF_FFFF

#: 10**t for t = 0..19 (10**20 does not fit in 64 bits).
_P10 = np.array([10**t for t in range(20)], dtype=_U64)
_E4 = _P10[4]

#: The four ASCII digits of 0..9999, each followed by an all-ones byte.
_DIGITS4 = np.full((10000, 8), 255, dtype=np.uint8)
_DIGITS4[:, ::2] = np.indices((10,) * 4).reshape(4, 10000).T + 48


def _text_tables():
    """The byte templates of the row layout (see ``reprs``).

    ``masks[22 * shown + dot + 1]`` is ANDed into the (digit, slot) pairs of
    weights 20..0: all ones keeps a shown digit, "." fills the slot after
    weight ``dot``; weight 20 shows "0" itself. ``tails[power + 324]`` is the
    scientific exponent, ``tails[633]`` the zero of ".0" and ``tails[634]``
    nothing; each ends in the separator ", "."""
    weight = np.arange(20, -1, -1)
    shown = np.arange(22)[:, None, None]
    dot = np.arange(-1, 21)[None, :, None]
    masks = np.zeros((22, 22, 42), dtype=np.uint8)
    masks[..., 0::2] = np.where(weight < shown, 255, 0)
    masks[..., 0] = np.where(shown[..., 0] > 20, 48, 0)
    masks[..., 1::2] = np.where(weight == dot, 46, 0)
    tails = [f"e{power:+03d}" for power in range(-324, 309)] + ["0", ""]
    tails = np.frombuffer("".join(t.ljust(6, "\0") + ", " for t in tails).encode(), np.uint8)
    return masks.reshape(22 * 22, 42), tails.reshape(-1, 8)


_MASKS, _TAILS = _text_tables()


def _exponent_tables():
    """Ryu's quantities for each biased exponent 0..2046: the 125-bit
    multiplier as four 32-bit limbs (shape (4, 2047)), the right shift j - 96
    of the product, the decimal exponent e10, the mask whose bits are clear in
    4*m2 exactly when vr is a trailing-zero case (0: always; all ones: never),
    the q <= 1 flag of the e2 < 0 branch, and 5**q where the e2 >= 0 branch
    tests divisibility by it (0 elsewhere)."""
    inv, fwd, pow5 = [], [], 1
    for i in range(326):
        bits = pow5.bit_length()
        if i < 291:
            inv.append((1 << (bits + 124)) // pow5 + 1)
        fwd.append(pow5 >> (bits - 125) if bits >= 125 else pow5 << (125 - bits))
        pow5 *= 5
    limbs = np.frombuffer(b"".join(m.to_bytes(16, "little") for m in inv + fwd), "<u4").reshape(-1, 4)

    def pow5_bits(e):
        return ((e * 1217359) >> 19) + 1

    e2 = np.maximum(np.arange(2047), 1) - 1077
    up = e2 >= 0
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    i = -e2 - q
    shift = np.where(up, q - e2 + 124 + pow5_bits(q), q - pow5_bits(i) + 125) - 96
    e10 = np.where(up, q, q + e2)
    small_q = ~up & (q <= 1)
    tz = np.left_shift(1, np.clip(q, 0, 62)).astype(_U64) - 1
    tzmask = np.where(small_q, 0, np.where(~up & (q < 63), tz, 2**64 - 1)).astype(_U64)
    p5 = np.where(up & (q <= 21), 5 ** np.clip(q, 0, 21), 0).astype(_U64)
    mul = np.ascontiguousarray(limbs[np.where(up, q, 291 + i)].T, dtype=_U64)
    return mul, shift, e10, tzmask, small_q, p5


_MUL, _SHIFT, _E10, _TZMASK, _SMALL_Q, _P5 = _exponent_tables()


def _window(cols, top, shift):
    """floor(X / 2**(96 + shift)) mod 2**64 as uint64, for shift in 0..31 and
    X = sum_k cols[k] * 2**(32 k) + top * 2**128 (int64 terms of either sign):
    the columns below 2**96 only carry into the window."""
    carry = ((((cols[0] >> 32) + cols[1]) >> 32) + cols[2]) >> 32
    return ((top << (32 - shift)) + ((cols[3] + carry) >> shift)).view(_U64)


def _largest(test):
    """The largest t in 0..19 with test(10**t), for a test that holds at
    t = 0 and, once false, stays false for larger t."""
    t = None
    for step in (16, 8, 4, 2, 1):
        trial = step if t is None else np.minimum(t + step, 19)
        ok = test(_P10[trial])
        t = np.where(ok, trial, 0) if t is None else np.where(ok, trial, t)
    return t


def shortest(bits):
    """Ryu's shortest digits of the finite float64 bit patterns ``bits``:
    (output, exponent) with |value| = output * 10**exponent, both 0 for zeros."""
    zero = (bits << 1) == 0
    bits = np.where(zero, _U64(0x3FF0_0000_0000_0000), bits)  # 1.0 in their place
    mant = bits & ((1 << 52) - 1)
    ex = ((bits >> 52) & 0x7FF).astype(np.intp)
    m2 = np.where(ex > 0, mant | (1 << 52), mant)
    even = (m2 & 1) == 0
    mm_shift = (mant != 0) | (ex <= 1)

    # 4*m2*mul in five 32-bit columns: the low halves of 4*m2 times each limb
    # are split, the high halves (under 2**23) are not. Adding 2*mul and
    # subtracting (1 + mm_shift)*mul gives the interval ends.
    mv = m2 << 2
    mul = _MUL.take(ex, axis=1)
    lo, hi = (mv & _MASK32) * mul, (mv >> 32) * mul
    cols = np.empty((4,) + bits.shape, dtype=_I64)
    cols[0] = 0
    cols[1:] = (lo[:3] >> 32).view(_I64) + hi[:3].view(_I64)
    cols += (lo & _MASK32).view(_I64)
    top = (lo[3] >> 32).view(_I64) + hi[3].view(_I64)
    mul = mul.view(_I64)
    shift = _SHIFT.take(ex)
    low = 1 + mm_shift.astype(_I64)
    vr = _window(cols, top, shift)
    vp = _window(cols + 2 * mul, top, shift)
    vm = _window(cols - low * mul, top, shift)

    # Ryu's trailing-zero flags (vr or vm exact decimals) and the exclusion
    # of vp where it is exact and odd.
    vr_tz = (mv & _TZMASK.take(ex)) == 0
    small_q = _SMALL_Q.take(ex)
    vm_tz = small_q & even & mm_shift
    vp_out = small_q & ~even
    p5 = _P5.take(ex)
    big = np.flatnonzero(p5)
    if big.size:
        p, v, e = p5[big], mv[big], even[big]
        five = v % 5 == 0
        vr_tz[big] = five & (v % p == 0)
        vm_tz[big] = ~five & e & ((v - low[big].view(_U64)) % p == 0)
        vp_out[big] = ~five & ~e & ((v + 2) % p == 0)
    vp = vp - vp_out

    # Drop the digits the interval does not need (vp // 10**t > vm // 10**t
    # exactly when vp % 10**t < vp - vm, which once false stays false). Most
    # values drop at most 3, so t = 1..4 are tested with scalar divisors (%
    # has no fast path, // does) and the search runs only where 4 still holds.
    # Then, where vm is an accepted exact decimal, drop the trailing zeros it
    # still has.
    gap = vp - vm
    cut = np.zeros(bits.shape, dtype=np.intp)
    for p in _P10[1:5]:
        holds = vp - vp // p * p < gap
        cut += holds
    deep = np.flatnonzero(holds)
    if deep.size:
        vp_deep, gap_deep = vp[deep], gap[deep]
        cut[deep] = _largest(lambda p: vp_deep % p < gap_deep)
    more = np.flatnonzero(vm_tz)
    if more.size:
        rest = vm[more]
        exact = rest % _P10[cut[more]] == 0
        vm_tz[more] = exact
        more = more[exact]
        rest = rest[exact] // _P10[cut[more]]
        cut[more] += _largest(lambda p: rest % p == 0)
    p = _P10[cut]
    out = vr // p
    removed = vr - out * p
    below = _P10[np.maximum(cut - 1, 0)]
    last = removed // below  # 0 where nothing was removed
    # A removed tail of exactly 5 followed by zeros rounds to even.
    tie = vr_tz & (removed == 5 * below) & ((out & 1) == 0)
    # vm // p == out, as vm <= vr
    up = ((vm >= out * p) & ~(even & vm_tz)) | ((last >= 5) & ~tie)
    return np.where(zero, 0, out + up), np.where(zero, 0, _E10.take(ex) + cut)


def reprs(values, lengths):
    """For each row of the finite float64 ``values`` (row r holds the next
    ``lengths[r]`` entries), ``", ".join(map(repr, row.tolist()))`` as ASCII
    bytes."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U64)
    out, exp = shortest(bits)
    ndig = np.maximum(np.searchsorted(_P10, out, side="right"), 1)
    decpt = ndig + exp
    fixed = (decpt > -4) & (decpt <= 16)
    # A positional integer takes its zeros as digits: out * 10**exp, exponent 0.
    scale = fixed & (exp > 0)
    out = out * _P10[np.where(scale, exp, 0)]
    ndig = np.where(scale, decpt, ndig)
    exp = np.where(scale, 0, exp)
    # The row shows the low `shown` digits of out, leading zeros included,
    # and a dot after weight `dot`. Positional text needs the units digit,
    # at weight -exp, so it shows at least 1 - exp digits; scientific text
    # puts the dot after the first digit.
    shown = np.where(fixed, np.maximum(ndig, 1 - exp), ndig)
    dot = np.where(fixed, -exp, np.where(ndig > 1, ndig - 1, -1))

    # One row of bytes per value: the sign, a (digit, dot slot) pair for each
    # weight 20..0, and a tail of the ".0" zero or the exponent, and ", ",
    # which is "\n" after a row's last value. NULs fill the rest.
    n = bits.size
    rows = np.empty((n, 51), dtype=np.uint8)
    rows[:, 0] = (bits >> 63).astype(np.uint8) * np.uint8(45)
    groups = np.empty((5, n), dtype=np.intp)
    for g in range(4, -1, -1):
        rest = out // _E4
        groups[g] = out - rest * _E4
        out = rest
    mask = _MASKS.take(22 * shown + dot + 1, axis=0)
    rows[:, 1:3] = mask[:, :2]
    rows[:, 3:43] = _DIGITS4.take(groups.T, axis=0).reshape(n, 40) & mask[:, 2:]
    rows[:, 43:] = _TAILS.take(np.where(fixed, np.where(exp == 0, 633, 634), decpt + 323), axis=0)
    lengths = np.asarray(lengths, dtype=np.intp)
    rows[np.cumsum(lengths)[lengths > 0] - 1, 49:] = 10, 0

    texts = iter(rows.tobytes().translate(None, b"\0").split(b"\n"))
    return [next(texts) if k else b"" for k in lengths.tolist()]
