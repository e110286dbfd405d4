import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from braidorbit import cyclo
from braidorbit.cyclo import (
    NotRootOfUnity,
    ParseError,
    Cyclotomic,
    cyc,
    _fold_terms,
    _mul_mod,
    _reduce_exponent,
    _times_x,
    cyclotomic_polynomial,
    euler_phi,
    order_of_root,
    parse_cyclo,
    render,
    sqrt_of_root,
    zeta,
)


def key_at(x, n):
    """The value's coefficients at conductor n: equal values give equal keys."""
    p = x.promote(n)
    return p.den, p.num


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_div(num, den):
    # independent oracle: naive long division over Q, asserts exactness
    num = [Fraction(c) for c in num]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = num[k + len(den) - 1] / den[-1]
        out[k] = q
        for j, y in enumerate(den):
            num[k + j] -= q * y
    assert not any(num)
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out]


@lru_cache(maxsize=None)
def phi_oracle(n):
    # divide x^n - 1 by Phi_d for all proper divisors d of n
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = poly_div(poly, list(phi_oracle(d)))
    return tuple(poly)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)  # x^2 - x + 1, from the oracle
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1


def test_cyclotomic_polynomial_oracle():
    # the square-full conductors take Phi_n from the Phi of their radical
    for n in [2, 3, 4, 5, 8, 9, 15, 24, 30, 60, 105, 360, 16, 27, 36, 49, 72, 100, 108, 125, 128]:
        assert cyclotomic_polynomial(n) == phi_oracle(n)


def test_cyclotomic_polynomial_of_a_large_square_full_conductor():
    # Phi_10 = x^4 - x^3 + x^2 - x + 1, so Phi_100000(x) = Phi_10(x^10000)
    poly = cyclotomic_polynomial(100000)
    assert len(poly) == 40001 and euler_phi(100000) == 40000
    assert {k: c for k, c in enumerate(poly) if c} == {0: 1, 10000: -1, 20000: 1, 30000: -1, 40000: 1}
    assert _fold_terms(100000) == ((0, -1), (10000, 1), (20000, -1), (30000, 1))


# ---- reduction mod Phi_N ----------------------------------------------------
#
# _mul_mod, _times_x and _reduce_exponent fold powers x^e, e >= phi, with
# the nonzero terms of x^phi mod Phi_N.  The oracle is the schoolbook
# product and long division by phi_oracle's Phi_N.


def poly_rem(num, n):
    """The remainder of the integer polynomial num on division by Phi_n."""
    mod = phi_oracle(n)
    phi = len(mod) - 1
    num = list(num) + [0] * phi
    for k in range(len(num) - 1, phi - 1, -1):
        q = num[k]
        if q:
            for j, y in enumerate(mod):
                num[k - phi + j] -= q * y
    return num[:phi]


REDUCTION_CONDUCTORS = list(range(1, 121)) + [211, 420]


@pytest.mark.parametrize("n", REDUCTION_CONDUCTORS)
def test_reduction_matches_long_division(n):
    rng = random.Random(n)
    phi = euler_phi(n)
    big = 1 << 70  # entries past 2^64
    zero = [0] * phi
    operands = [zero, [1] + zero[1:], [-big] * phi]
    for _ in range(2):
        operands.append([rng.randrange(-9, 10) for _ in range(phi)])
        operands.append([rng.choice([0, 0, 0, rng.randrange(-big, big)]) for _ in range(phi)])
    for a in operands:
        for b in operands[::2]:  # zero, -2^70 everywhere, small, sparse large
            assert _mul_mod(n, a, b) == poly_rem(poly_mul(a, b), n)
        assert _times_x(a, _fold_terms(n)) == poly_rem([0] + a, n)
    top = 2 * n + 3
    exponents = {0, phi - 1, phi, phi + 1, n - 1, n, top - 1} | set(rng.sample(range(top), min(8, top)))
    for e in sorted(exponents):
        assert _reduce_exponent(n, e) == poly_rem([0] * e + [1], n)


def test_a_product_at_conductor_100000_stays_small():
    # phi = 40000: a dense (phi-1) x phi reduction table would hold 1.6e9
    # ints, so the child caps its address space and fails with MemoryError
    # rather than exhausting the machine
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import resource, tracemalloc\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from braidorbit.cyclo import zeta\n"
        "zeta(100000, 1) * zeta(100000, 1)  # caches Phi and its terms\n"
        "for a, b in [(30000, 20001), (39999, 39999), (1, 99999), (70000, 65000)]:\n"
        "    x, y, xy = zeta(100000, a), zeta(100000, b), zeta(100000, a + b)\n"
        "    tracemalloc.start()\n"
        "    p = x * y\n"
        "    peak = tracemalloc.get_traced_memory()[1]\n"
        "    tracemalloc.stop()\n"
        "    assert p == xy, (a, b)\n"
        "    assert peak < 16 << 20, (a, b, peak)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_phi_degrees():
    for n, phi in [(1, 1), (2, 1), (3, 2), (12, 4), (60, 16), (360, 96)]:
        assert euler_phi(n) == phi


def test_zeta_basics():
    assert zeta(2, 1) == -1
    assert zeta(6, 1) + zeta(6, 5) == 1
    assert zeta(12, 6) == -1
    assert zeta(5, 7) == zeta(5, 2)


def test_field_ops_examples():
    x = zeta(12, 5) + 3
    assert x * x.inverse() == 1
    assert (1 - zeta(3, 1)) * (1 - zeta(3, 2)) == 3
    assert zeta(4, 1) * zeta(3, 1) == zeta(12, 7)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        cyc(1) / cyc(0)
    with pytest.raises(ZeroDivisionError):
        cyc(0).inverse()


def test_order_of_root_examples():
    assert order_of_root(zeta(12, 5)) == 12
    assert order_of_root(cyc(2)) is None
    assert order_of_root(-zeta(3, 1)) == 6
    assert order_of_root(cyc(1)) == 1
    assert order_of_root(cyc(0)) is None


def test_order_of_root_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 120)
        k = rng.randrange(0, 3 * n)
        expected = n // gcd(n, k) if k % n else 1
        assert order_of_root(zeta(n, k)) == expected


def test_sqrt_of_root():
    assert sqrt_of_root(cyc(1)) == 1
    assert sqrt_of_root(cyc(-1)) == zeta(4, 1)
    assert sqrt_of_root(zeta(3, 1)) == zeta(6, 1)
    with pytest.raises(NotRootOfUnity):
        sqrt_of_root(cyc(2))


def test_sqrt_squares_back():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 60)
        k = rng.randrange(n)
        x = zeta(n, k)
        assert sqrt_of_root(x) ** 2 == x


# ---- the root-of-unity table ----------------------------------------------
#
# order_of_root and sqrt_of_root look x up in a per-conductor table of the
# roots of unity of Q(zeta_N).  The oracles below are the earlier powering
# forms, which share no code with the table.


def _order_by_powering(x):
    """Smallest divisor d of lcm(2, N) with x^d = 1, or None."""
    x = cyc(x)
    if x.is_zero():
        return None
    bound = lcm(2, x.n)
    if x**bound != 1:
        return None
    return min(d for d in range(1, bound + 1) if bound % d == 0 and x**d == 1)


def _sqrt_by_search(x):
    """zeta_(2m)^k for x = zeta_m^k, with k found by comparing every zeta_m^k."""
    m = _order_by_powering(x)
    if m is None:
        raise NotRootOfUnity(str(x))
    if m == 1:
        return cyc(1)
    return next(zeta(2 * m, k) for k in range(1, m) if gcd(k, m) == 1 and x == zeta(m, k))


ROOT_TABLE_CONDUCTORS = sorted({d for big in (60, 24, 9) for d in range(1, big + 1) if big % d == 0})


def _table_cases(n):
    """Roots of unity and non-roots stored at conductor n."""
    z = [zeta(n, k) for k in range(n)]
    values = z + [-x for x in z]
    # stored at n although they lie in a smaller field
    values += [x.promote(n) for m in range(1, n + 1) if n % m == 0 for x in (zeta(m, 1), -zeta(m, 1))]
    values += [cyc(q).promote(n) for q in (1, -1, 0, 2, -3, Fraction(1, 2), Fraction(-1, 3))]
    # not roots: non-unit multiples, sums, and denominators other than 1
    values += [2 * z[1 % n], z[1 % n] / 2, -z[-1] / 3, z[0] + z[1 % n], z[1 % n] + z[2 % n] + z[3 % n]]
    values += [z[1 % n] - z[2 % n]]
    return values


@pytest.mark.parametrize("n", ROOT_TABLE_CONDUCTORS)
def test_root_table_matches_powering(n):
    for x in _table_cases(n):
        assert x.n == n
        assert order_of_root(x) == _order_by_powering(x), x


@pytest.mark.parametrize("n", ROOT_TABLE_CONDUCTORS)
def test_root_table_square_roots_match_the_search(n):
    for x in _table_cases(n):
        try:
            expected = _sqrt_by_search(x)
        except NotRootOfUnity:
            with pytest.raises(NotRootOfUnity):
                sqrt_of_root(x)
            continue
        got = sqrt_of_root(x)
        assert (got.n, got.num, got.den) == (expected.n, expected.num, expected.den), x


def test_parse_examples():
    assert parse_cyclo("z6") == zeta(6, 1)
    assert parse_cyclo("(1 - z3)^2") == 1 - 2 * zeta(3, 1) + zeta(3, 1) ** 2
    assert parse_cyclo("z4*z3") == zeta(12, 7)
    assert parse_cyclo("z12^5 + 1/2") == zeta(12, 5) + Fraction(1, 2)
    assert parse_cyclo("z12^-1") == zeta(12, 11)
    assert parse_cyclo("-2/3") == Fraction(-2, 3)
    assert parse_cyclo("1/z3") == zeta(3, 2)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse_cyclo("1 + ")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        parse_cyclo("(1+2")
    with pytest.raises(ParseError):
        parse_cyclo("1 2")


small_roots = st.builds(
    zeta,
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
    st.integers(min_value=0, max_value=23),
)
rationals = st.builds(
    lambda p, q: cyc(Fraction(p, q)),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=6),
)
elements = st.one_of(
    rationals,
    small_roots,
    st.builds(lambda a, b: a + b, small_roots, rationals),
    st.builds(lambda a, b: a * b, small_roots, small_roots),
)


@settings(max_examples=80, deadline=None)
@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(elements)
def test_inverse_and_roundtrip(x):
    if not x.is_zero():
        assert x * x.inverse() == 1
    assert parse_cyclo(render(x)) == x


@st.composite
def dense_elements(draw):
    # every power-basis coefficient drawn, at phi 8 (15, 20, 24, 30) and 16 (60)
    n = draw(st.sampled_from([15, 20, 24, 30, 60]))
    coeffs = draw(st.lists(st.integers(-60, 60), min_size=euler_phi(n), max_size=euler_phi(n)))
    den = draw(st.integers(min_value=1, max_value=40))
    return sum((c * zeta(n, k) for k, c in enumerate(coeffs)), cyc(0, n)) / den


@settings(max_examples=60, deadline=None)
@given(dense_elements())
@example(zeta(120, 1) - 3 * zeta(120, 7) + 2 * zeta(120, 31) + zeta(120, 29) / 5)  # phi 32
@example(zeta(120, 1) + 2)
@example(Cyclotomic.from_rational(Fraction(-3, 4), 60))  # rational at phi 16
@example(cyc(Fraction(-5, 7)))  # phi 1
@example(cyc(6, 2))
def test_inverse_dense(x):
    assume(not x.is_zero())
    y = x.inverse()
    assert x * y == 1
    assert y.inverse() == x
    assert y.n == x.n and len(y.num) == euler_phi(x.n)
    assert y.den > 0
    assert gcd(y.den, *y.num) == 1


@settings(max_examples=40, deadline=None)
@given(elements, st.sampled_from([2, 3, 4, 5, 6]))
# stored conductors above the minimal one: zeta(6, 2) is zeta(3, 1),
# zeta(12, 3) is zeta(4, 1)
@example(zeta(3, 1), 2)
@example(zeta(6, 2), 2)
@example(zeta(4, 1), 3)
@example(zeta(12, 3), 5)
@example(cyc(5), 12)
@example(cyc(Fraction(1, 2)), 6)
@example(zeta(60, 10) + zeta(60, 15), 2)
def test_equality_is_conductor_blind(x, m):
    promoted = x.promote(x.n * m)
    assert promoted == x
    assert hash(promoted) == hash(x)
    assert promoted.minimal().n == x.minimal().n
    assert key_at(promoted, x.n * m * 2) == key_at(x, x.n * m * 2)
    if x.is_rational():
        assert hash(x) == hash(Fraction(x.num[0], x.den))


def _minimal_by_fit(x):
    """The value at the least conductor d | x.n that `fit` accepts."""
    for d in range(1, x.n + 1):
        if x.n % d == 0:
            try:
                return x.fit(d)
            except ValueError:
                pass


def test_hashing_renders_no_error_message(monkeypatch):
    # `minimal` tries to demote at every prime of the conductor; a failed
    # demotion, which every non-rational value meets, builds no message
    rng = random.Random(7)
    values = []
    while len(values) < 60:
        m = rng.choice([3, 4, 5, 7, 8, 9, 12, 15])
        num = [rng.randint(-9, 9) for _ in range(euler_phi(m))]
        x = Cyclotomic._make(m, num, rng.randint(1, 5))
        if not x.is_rational():
            values.append(x.promote(m * rng.choice([1, 2, 3, 5, 6])))
    want = []
    for x in values:
        w = _minimal_by_fit(x)
        want.append(((w.n, w.num, w.den), hash((w.n, w.num, w.den))))
    rendered = []
    monkeypatch.setattr(cyclo, "render", lambda x: rendered.append(x) or "?")
    got = [((w.n, w.num, w.den), hash(x)) for x in values for w in [x.minimal()]]
    assert rendered == []
    assert got == want
    with pytest.raises(ValueError):
        values[0].fit(1)
    assert rendered == [values[0]]


def _fit_by_elimination(x, m):
    """x at conductor m, m | x.n, by one Gaussian elimination over Fractions
    on the promotion rows, or None where x is not in Q(zeta_m)."""
    basis = [Cyclotomic._make(m, _reduce_exponent(m, i), 1) for i in range(euler_phi(m))]
    rows = [z.promote(x.n).num for z in basis]
    aug = [
        [Fraction(row[j]) for row in rows] + [Fraction(x.num[j], x.den)]
        for j in range(euler_phi(x.n))
    ]
    r = 0
    pivots = []
    for col in range(len(rows)):
        piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [e / aug[r][col] for e in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                aug[i] = [a - aug[i][col] * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if any(row[-1] for row in aug[r:]):
        return None
    coeffs = [Fraction(0)] * len(rows)
    for i, col in enumerate(pivots):
        coeffs[col] = aug[i][-1]
    den = lcm(*(c.denominator for c in coeffs))
    return Cyclotomic._make(m, [int(c * den) for c in coeffs], den)


@pytest.mark.parametrize("m, n", [(3, 6), (4, 12), (5, 15), (12, 60), (15, 60)])
def test_memoized_demotion_matches_an_elimination(m, n):
    # half the values lie in Q(zeta_m) (promoted from m), half are drawn at n
    rng = random.Random(m * 1000 + n)
    for k in range(40):
        at = m if k % 2 == 0 else n
        num = [rng.randint(-9, 9) for _ in range(euler_phi(at))]
        x = Cyclotomic._make(at, num, rng.randint(1, 7)).promote(n)
        want = _fit_by_elimination(x, m)
        got = x._fit(m)
        if want is None:
            assert got is None
        else:
            assert (got.n, tuple(got.num), got.den) == (want.n, tuple(want.num), want.den)
    # both outcomes occur wherever Q(zeta_m) is smaller than Q(zeta_n)
    if euler_phi(m) < euler_phi(n):
        x = zeta(n, 1)
        assert x._fit(m) is None and _fit_by_elimination(x, m) is None


def test_galois_and_conj():
    x = zeta(12, 1) + 2
    assert x.conj() == zeta(12, 11) + 2
    assert (x * x.conj()).is_rational() is False  # |zeta+2|^2 is not rational-free
    y = zeta(5, 1)
    assert y.galois(2) == zeta(5, 2)


def test_to_complex():
    z = zeta(8, 1).to_complex()
    assert abs(z - complex(2**-0.5, 2**-0.5)) < 1e-12
