"""Kernel for matrix groups over cyclotomic rings, and the one exact BFS.

Entries live in Z[x]/Phi_N over a common positive denominator; phi =
deg Phi_N coefficients per entry.  A matrix is a bytes blob of
little-endian int64: [den, c(0,0,0..phi-1), c(0,1,*), ...]; blobs are
content-normalized with den > 0, so equal matrices have equal blobs.
Vectors use the same layout.  A normalized value that does not fit
int64 raises OverflowError.

`red` is the flattened reduction table: row t (phi ints) expresses
x^(phi+t) in the power basis, t = 0 .. phi-2.  Projective operations
(line_canon, line_orbit) are implemented for quadratic rings only,
where red = (p, q) gives the closed-form inverse.

`bfs` is the level-order search behind every exact orbit and closure of
the package, and `BoundExceeded` is what each of them raises past its
bound.
"""

from __future__ import annotations

import struct
from math import gcd, lcm

from .cyclo import Cyclotomic, _reduction_rows, cyc, euler_phi
from .linalg import Mat

BACKEND = "python"  # named in CLI payloads and benchmark provenance

_INT64 = range(-(1 << 63), 1 << 63)


class BoundExceeded(RuntimeError):
    """A search found more than `bound` distinct items.

    `found` holds the first bound+1 of them, in discovery order.
    """

    def __init__(self, bound, found):
        super().__init__(f"search exceeded its bound of {bound}")
        self.bound = bound
        self.found = found


def bfs(start, step, bound, key=None):
    """All items reachable from `start`, in level (discovery) order.

    `step(item)` yields the neighbours of an item and `key(item)` is its
    hashable identity (the item itself when `key` is None).  Raises
    BoundExceeded once a (bound+1)-th distinct item appears.
    """
    seen = {start if key is None else key(start)}
    found = [start]
    # `found` doubles as the FIFO queue: items are expanded in the order
    # they were discovered, which is level order
    for item in found:
        for nxt in step(item):
            k = nxt if key is None else key(nxt)
            if k not in seen:
                seen.add(k)
                found.append(nxt)
                if len(found) > bound:
                    raise BoundExceeded(bound, found)
    return found


def _pack(ints):
    try:
        return struct.pack(f"<{len(ints)}q", *ints)
    except struct.error:
        big = next(x for x in ints if x not in _INT64)
        raise OverflowError(f"kernel value {big} does not fit int64") from None


def _unpack(blob):
    return struct.unpack(f"<{len(blob) // 8}q", blob)


def _normalize(den, nums):
    if den < 0:
        den = -den
        nums = [-x for x in nums]
    g = den
    for x in nums:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [x // g for x in nums]
    return _pack([den] + list(nums))


def pack_values(den, nums):
    """Build a normalized blob from a denominator and coefficient ints."""
    return _normalize(den, list(nums))


def unpack_values(blob):
    vals = _unpack(blob)
    return vals[0], vals[1:]


def _vmul(u, v, phi, red):
    """Product of two coefficient vectors, reduced into the power basis."""
    conv = [0] * (2 * phi - 1)
    for i in range(phi):
        x = u[i]
        if x:
            for j in range(phi):
                y = v[j]
                if y:
                    conv[i + j] += x * y
    out = conv[:phi]
    for t in range(phi - 1):
        c = conv[phi + t]
        if c:
            base = t * phi
            for j in range(phi):
                out[j] += c * red[base + j]
    return out


def _accumulate_row(mv, vn, i, d, phi, red):
    """Row i of (matrix coefficients mv) times vector coefficients vn."""
    acc = [0] * phi
    row_base = 1 + phi * d * i
    for k in range(d):
        u = mv[row_base + phi * k : row_base + phi * (k + 1)]
        if not any(u):
            continue
        v = vn[phi * k : phi * (k + 1)]
        if not any(v):
            continue
        prod = _vmul(u, v, phi, red)
        for j in range(phi):
            acc[j] += prod[j]
    return acc


def mat_mul(a, b, d, phi, red):
    av = _unpack(a)
    bv = _unpack(b)
    den = av[0] * bv[0]
    out = [0] * (phi * d * d)
    for i in range(d):
        for j in range(d):
            acc = [0] * phi
            for k in range(d):
                u = av[1 + phi * (i * d + k) : 1 + phi * (i * d + k + 1)]
                if not any(u):
                    continue
                v = bv[1 + phi * (k * d + j) : 1 + phi * (k * d + j + 1)]
                if not any(v):
                    continue
                prod = _vmul(u, v, phi, red)
                for t in range(phi):
                    acc[t] += prod[t]
            base = phi * (i * d + j)
            out[base : base + phi] = acc
    return _normalize(den, out)


def mat_vec(m, v, d, phi, red):
    mv = _unpack(m)
    vv = _unpack(v)
    den = mv[0] * vv[0]
    vn = vv[1:]
    out = []
    for i in range(d):
        out.extend(_accumulate_row(mv, vn, i, d, phi, red))
    return _normalize(den, out)


def identity_blob(d, phi=2):
    out = [0] * (phi * d * d)
    for i in range(d):
        out[phi * (i * d + i)] = 1
    return _pack([1] + out)


def closure(gens, d, phi, red, bound):
    """Multiplicative closure of the generators; raises past the bound."""
    return bfs(
        identity_blob(d, phi),
        lambda m: (mat_mul(g, m, d, phi, red) for g in gens),
        bound,
    )


def stab_count_line(elements, v, d, phi, red):
    vv = _unpack(v)
    vn = vv[1:]
    pivot = next(k for k in range(d) if any(vn[phi * k : phi * (k + 1)]))
    pv = vn[phi * pivot : phi * (pivot + 1)]
    count = 0
    for m in elements:
        mv = _unpack(m)
        w = [_accumulate_row(mv, vn, i, d, phi, red) for i in range(d)]
        wp = w[pivot]
        ok = True
        for i in range(d):
            if i == pivot:
                continue
            left = _vmul(w[i], pv, phi, red)
            right = _vmul(wp, vn[phi * i : phi * (i + 1)], phi, red)
            if left != right:
                ok = False
                break
        if ok:
            count += 1
    return count


def stab_count_point(elements, v, d, phi, red):
    count = 0
    for m in elements:
        if mat_vec(m, v, d, phi, red) == v:
            count += 1
    return count


def _require_quadratic(phi):
    if phi != 2:
        raise ValueError("projective kernel operations need a quadratic ring")


def _qmul(a0, a1, b0, b1, p, q):
    t = a1 * b1
    return a0 * b0 + t * p, a0 * b1 + a1 * b0 + t * q


def _qinv_scaled(a, b, p, q):
    """(a+bx)^-1 = (a + b q - b x) / N with N = a^2 + a b q - b^2 p."""
    return a + b * q, -b, a * a + a * b * q - b * b * p


def line_canon(v, d, phi, red):
    """Scale so the first nonzero entry is exactly 1, then normalize."""
    _require_quadratic(phi)
    p, q = red
    vv = _unpack(v)
    nums = list(vv[1:])
    pivot = next((k for k in range(d) if nums[2 * k] or nums[2 * k + 1]), None)
    if pivot is None:
        return _pack([1] + nums)
    ca, cb, n = _qinv_scaled(nums[2 * pivot], nums[2 * pivot + 1], p, q)
    out = [0] * (2 * d)
    for k in range(d):
        r0, r1 = _qmul(nums[2 * k], nums[2 * k + 1], ca, cb, p, q)
        out[2 * k] = r0
        out[2 * k + 1] = r1
    return _normalize(n, out)


def line_orbit(gens, v, d, phi, red, bound):
    _require_quadratic(phi)
    return bfs(
        line_canon(v, d, phi, red),
        lambda w: (line_canon(mat_vec(g, w, d, phi, red), d, phi, red) for g in gens),
        bound,
    )


def reflection_indices(elements, d, phi, red):
    """Indices of elements m with rank(m - I) == 1 (fraction-free Gauss)."""
    out = []
    for idx, m in enumerate(elements):
        mv = _unpack(m)
        den = mv[0]
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                coeffs = list(mv[1 + phi * (i * d + j) : 1 + phi * (i * d + j + 1)])
                if i == j:
                    coeffs[0] -= den
                row.extend(coeffs)
            rows.append(row)
        if _rank_ff(rows, d, phi, red) == 1:
            out.append(idx)
    return out


def _rank_ff(rows, d, phi, red):
    rank = 0
    col = 0
    nrows = len(rows)
    while rank < nrows and col < d:
        piv = next(
            (
                r
                for r in range(rank, nrows)
                if any(rows[r][phi * col : phi * (col + 1)])
            ),
            None,
        )
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][phi * col : phi * (col + 1)]
        for r in range(rank + 1, nrows):
            fv = rows[r][phi * col : phi * (col + 1)]
            if not any(fv):
                continue
            new = []
            for k in range(d):
                u = _vmul(pv, rows[r][phi * k : phi * (k + 1)], phi, red)
                v = _vmul(fv, rows[rank][phi * k : phi * (k + 1)], phi, red)
                new.extend([a - b for a, b in zip(u, v)])
            rows[r] = new
        rank += 1
        col += 1
    return rank


# ---- Cyclotomic <-> blob conversion -------------------------------------------


def ring_params(conductor):
    """(phi, red) for the power basis of Q(zeta_conductor).

    `red` is the flattened integer reduction table: row t gives
    x^(phi+t) in the power basis, t = 0 .. phi-2.
    """
    phi = euler_phi(conductor)
    if phi == 1:
        return 1, ()
    rows = _reduction_rows(conductor)
    return phi, tuple(x for row in rows for x in row)


def to_blob_matrix(m, conductor):
    phi = euler_phi(conductor)
    den = 1
    promoted = []
    for e in m.entries:
        pe = e.fit(conductor)
        promoted.append(pe)
        den = lcm(den, pe.den)
    nums = []
    for pe in promoted:
        f = den // pe.den
        nums.extend(c * f for c in pe.num)
    return pack_values(den, nums)


def from_blob_matrix(blob, d, conductor):
    phi = euler_phi(conductor)
    den, nums = unpack_values(blob)
    entries = [
        Cyclotomic._make(conductor, list(nums[phi * k : phi * (k + 1)]), den)
        for k in range(d * d)
    ]
    return Mat(d, d, entries)


def to_blob_vector(vec, conductor):
    den = 1
    promoted = []
    for e in vec:
        pe = cyc(e).fit(conductor)
        promoted.append(pe)
        den = lcm(den, pe.den)
    nums = []
    for pe in promoted:
        f = den // pe.den
        nums.extend(c * f for c in pe.num)
    return pack_values(den, nums)


def from_blob_vector(blob, conductor):
    phi = euler_phi(conductor)
    den, nums = unpack_values(blob)
    return tuple(
        Cyclotomic._make(conductor, list(nums[phi * k : phi * (k + 1)]), den)
        for k in range(len(nums) // phi)
    )
