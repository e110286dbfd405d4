"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Values are stored in the power basis {1, z, ..., z^(phi(N)-1)} of
Q[x]/(Phi_N), with integer coefficient vectors over a common positive
denominator.  zeta(N, 1) is e^(2*pi*i/N).  Mixed conductors are promoted
to the lcm on the fly; equality is conductor-blind.  Instances are
immutable, so they can be shared freely between threads, and hashable:
the hash is taken from the value at its minimal conductor, so it does not
depend on the stored conductor, and a rational value hashes like the equal
int or Fraction.

`order_of_root` and `sqrt_of_root` look a value up in a per-conductor
table of the roots of unity of Q(zeta_N), the lcm(2, N)-th roots, so
they raise nothing to a power.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class NotRootOfUnity(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = tuple(expected)


def _poly_divexact(num, den):
    """Exact division of integer polynomials (den monic up to sign)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % lead == 0
        q = c // lead
        out[k] = q
        if q:
            for j, y in enumerate(den):
                num[k + j] -= q * y
    assert not any(num), "division was not exact"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, low degree first, monic with integer entries.

    Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, so only squarefree
    conductors divide x^n - 1 by the Phi_d of their divisors.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    rad = 1
    for p in _prime_factors(n):
        rad *= p
    if rad < n:
        step = n // rad
        out = [0] * (step * euler_phi(rad) + 1)
        out[::step] = cyclotomic_polynomial(rad)
        return tuple(out)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def euler_phi(n):
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _fold_terms(n):
    """The nonzero terms (j, c) of x^phi = sum c * x^j mod Phi_n, j < phi.

    c = -f_j for the low coefficients f_j of Phi_n, which are mostly zero
    (Phi_60 has 6 of 16, Phi_100000 4 of 40000), so folding a power x^e,
    e >= phi, down as x^(e-phi) * x^phi costs one step per term.
    """
    phi = euler_phi(n)
    return tuple((j, -f) for j, f in enumerate(cyclotomic_polynomial(n)[:phi]) if f)


def _times_x(b, terms):
    """x * b mod Phi_n for a power-basis vector b, a list.

    `terms` are `_fold_terms(n)`, which fold the coefficient shifted out
    of the top back into the basis.
    """
    h = b[-1]
    out = [0] + b[:-1]
    if h:
        for j, f in terms:
            out[j] += h * f
    return out


def _fold(n, coeffs):
    """Reduce the integer polynomial `coeffs` mod Phi_n, in place.

    `coeffs` is a list of at least phi(n) coefficients, low degree first.
    """
    phi = euler_phi(n)
    terms = _fold_terms(n)
    # fold x^e = x^(e-phi) * x^phi from the top, so each fold lands on
    # powers still to be folded or already in the basis
    for e in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[e]
        if c:
            base = e - phi
            for j, f in terms:
                coeffs[base + j] += c * f
    del coeffs[phi:]
    return coeffs


def _reduce_exponent(n, e):
    """Integer coefficient vector of zeta_n^e in the power basis."""
    e %= n
    row = [0] * max(euler_phi(n), e + 1)
    row[e] = 1
    return _fold(n, row)


@lru_cache(maxsize=None)
def _promotion_rows(n, m):
    """Rows expressing the basis of Q(zeta_n) inside Q(zeta_m), n | m."""
    assert m % n == 0
    step = m // n
    return tuple(tuple(_reduce_exponent(m, i * step)) for i in range(euler_phi(n)))


def _prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _divide_content(r, s):
    """Divide two integer lists by the gcd of all their entries."""
    g = 0
    for x in r:
        g = gcd(g, x)
        if g == 1:
            return r, s
    for x in s:
        g = gcd(g, x)
        if g == 1:
            return r, s
    return [x // g for x in r], [x // g for x in s]


def _mul_mod(n, a, b):
    """Product of two power-basis integer vectors of Q(zeta_n), mod Phi_n."""
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j in range(phi):
                y = b[j]
                if y:
                    conv[i + j] += x * y
    return _fold(n, conv)


def _int_inverse(n, num):
    """Integers (s, c), c != 0, with num * s == c (mod Phi_n).

    `num` is a nonzero power-basis integer vector of Q(zeta_n) and `s` has
    the same length, so 1/num = s/c.
    """
    phi = len(num)
    if phi == 1:
        return [1], num[0]
    # Extended Euclid on (Phi_n, num) over Z by pseudo-division: each
    # pair (r, s) keeps r == s * num (mod Phi_n), and each remainder
    # step ends by dividing the pair by its joint content.  Phi_n is
    # irreducible, so the remainders end at a nonzero integer c.
    r0, s0 = list(cyclotomic_polynomial(n)), [0]
    r1, s1 = list(num), [1]
    while not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        lead = r1[-1]
        while len(r0) >= len(r1):
            # r0 <- a*r0 - b*x^shift*r1 cancels the leading term of r0
            top = r0[-1]
            g = gcd(lead, top)
            a, b = lead // g, top // g
            shift = len(r0) - len(r1)
            if a != 1:
                r0 = [a * x for x in r0]
                s0 = [a * x for x in s0]
            for j, y in enumerate(r1):
                r0[shift + j] -= b * y
            r0.pop()
            while not r0[-1]:
                r0.pop()
            if len(s0) < shift + len(s1):
                s0 += [0] * (shift + len(s1) - len(s0))
            for j, y in enumerate(s1):
                s0[shift + j] -= b * y
        r0, s0 = _divide_content(r0, s0)
        r0, s0, r1, s1 = r1, s1, r0, s0
    return s1 + [0] * (phi - len(s1)), r1[0]


class Cyclotomic:
    # _hash is filled in by the first hash() call and left unset before it
    __slots__ = ("n", "num", "den", "_hash")

    def __init__(self, n, num, den):
        # Internal constructor; use zeta()/from_rational()/parse_cyclo().
        self.n = n
        self.num = num
        self.den = den

    @staticmethod
    def _make(n, num, den):
        if den < 0:
            den = -den
            num = [-x for x in num]
        g = den
        for x in num:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            num = [x // g for x in num]
            den //= g
        return Cyclotomic(n, tuple(num), den)

    @staticmethod
    def from_rational(q, conductor=1):
        q = Fraction(q)
        phi = euler_phi(conductor)
        num = [0] * phi
        num[0] = q.numerator
        return Cyclotomic._make(conductor, num, q.denominator)

    def promote(self, m):
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot promote conductor {self.n} to {m}")
        rows = _promotion_rows(self.n, m)
        phi = euler_phi(m)
        out = [0] * phi
        for i, c in enumerate(self.num):
            if c:
                row = rows[i]
                for j in range(phi):
                    out[j] += c * row[j]
        return Cyclotomic._make(m, out, self.den)

    def fit(self, m):
        """Express the value at conductor m, promoting or demoting as needed.

        Raises ValueError when the value does not lie in Q(zeta_m).
        """
        x = self._fit(m)
        if x is None:
            raise ValueError(f"{self!r} does not lie in Q(zeta_{m})")
        return x

    def _fit(self, m):
        """`fit`, or None where the value does not lie in Q(zeta_m).

        `minimal` (and so every hash) meets that case at each failed
        demotion; it must not pay for rendering an error message.
        """
        if m == self.n:
            return self
        if m % self.n == 0:
            return self.promote(m)
        big = lcm(m, self.n)
        x = self.promote(big)
        rows = _promotion_rows(m, big)
        phi_m, phi_big = euler_phi(m), euler_phi(big)
        # solve sum_i c_i rows[i] = x over Q by Gaussian elimination
        aug = [
            [Fraction(rows[i][j]) for i in range(phi_m)] + [Fraction(x.num[j], x.den)]
            for j in range(phi_big)
        ]
        pivots = []
        r = 0
        for col in range(phi_m):
            piv = next((i for i in range(r, phi_big) if aug[i][col]), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            inv = 1 / aug[r][col]
            aug[r] = [e * inv for e in aug[r]]
            for i in range(phi_big):
                if i != r and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
            pivots.append(col)
            r += 1
        for i in range(r, phi_big):
            if aug[i][phi_m]:
                return None
        coeffs = [Fraction(0)] * phi_m
        for row_idx, col in enumerate(pivots):
            coeffs[col] = aug[row_idx][phi_m]
        den = 1
        for c in coeffs:
            den = lcm(den, c.denominator)
        return Cyclotomic._make(m, [int(c * den) for c in coeffs], den)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other)
        return None

    def _align(self, other):
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.promote(m), other.promote(m)

    # ---- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        d = lcm(a.den, b.den)
        fa, fb = d // a.den, d // b.den
        num = [x * fa + y * fb for x, y in zip(a.num, b.num)]
        return Cyclotomic._make(a.n, num, d)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        return Cyclotomic._make(a.n, _mul_mod(a.n, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        s, c = _int_inverse(self.n, self.num)
        return Cyclotomic._make(self.n, [self.den * x for x in s], c)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.from_rational(1, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # ---- predicates and views ---------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == other.n:
            return self.num == other.num and self.den == other.den
        a, b = self._align(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        x = self.minimal()
        if x.n == 1:
            h = hash(Fraction(x.num[0], x.den))  # as the equal int/Fraction
        else:
            h = hash((x.n, x.num, x.den))
        self._hash = h
        return h

    def minimal(self):
        """The same value at its minimal conductor.

        The conductors m | n with the value in Q(zeta_m) are exactly the
        multiples of the minimal one, since Q(zeta_a) and Q(zeta_b) meet in
        Q(zeta_gcd(a, b)); so dividing out primes while the value still
        fits reaches it.
        """
        if self.is_rational():
            return Cyclotomic._make(1, [self.num[0]], self.den)
        x = self
        for p in _prime_factors(self.n):
            while x.n % p == 0:
                y = x._fit(x.n // p)
                if y is None:
                    break
                x = y
        return x

    def coeffs(self):
        return tuple(Fraction(x, self.den) for x in self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def galois(self, k):
        """Image under zeta_n -> zeta_n^k; requires gcd(k, n) = 1."""
        if gcd(k, self.n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        phi = euler_phi(self.n)
        out = [0] * phi
        for i, c in enumerate(self.num):
            if c:
                row = _reduce_exponent(self.n, (i * k) % self.n)
                for j in range(phi):
                    out[j] += c * row[j]
        return Cyclotomic._make(self.n, out, self.den)

    def conj(self):
        """Complex conjugation, zeta -> zeta^-1."""
        return self.galois(self.n - 1) if self.n > 1 else self

    def to_complex(self):
        z = 0j
        for i, c in enumerate(self.num):
            if c:
                z += c * cmath.exp(2j * cmath.pi * i / self.n)
        return z / self.den

    def __repr__(self):
        return f"Cyclotomic({render(self)!r})"

    def __str__(self):
        return render(self)


def zeta(n, k=1):
    """zeta_n^k with zeta_n = e^(2*pi*i/n)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return Cyclotomic._make(n, _reduce_exponent(n, k % n), 1)


def cyc(value, conductor=1):
    """Coerce an int/Fraction/Cyclotomic to Cyclotomic."""
    if isinstance(value, Cyclotomic):
        return value
    return Cyclotomic.from_rational(value, conductor)


ZERO = cyc(0)
ONE = cyc(1)


@lru_cache(maxsize=32)
def _roots_of_unity(n):
    """Every root of unity of Q(zeta_n), as stored at conductor n.

    Maps the integer power-basis vector of each to (m, k) with the value
    equal to zeta_m^k, k coprime to m (k = 0 for m = 1).  The roots of
    unity of Q(zeta_n) are exactly the L-th roots, L = lcm(2, n), and
    zeta_L^j = zeta_m^k with m = L / gcd(j, L) and k = j / gcd(j, L).  For
    odd n, L = 2n and zeta_2n^j is zeta_n^(j/2) for even j and
    -zeta_n^((j+n)/2) for odd j.  All are algebraic integers, stored over
    the denominator 1.
    """
    phi = euler_phi(n)
    terms = _fold_terms(n)
    powers = []  # zeta_n^0 .. zeta_n^(n-1)
    cur = [1] + [0] * (phi - 1)
    for _ in range(n):
        powers.append(tuple(cur))
        cur = _times_x(cur, terms)
    big = lcm(2, n)
    table = {}
    for j in range(big):
        if big == n:
            num = powers[j]
        elif j % 2 == 0:
            num = powers[j // 2]
        else:
            num = tuple(-a for a in powers[(j + n) // 2 % n])
        g = gcd(j, big)
        table[num] = (big // g, j // g)
    return table


def _root_index(x):
    """(m, k) with x = zeta_m^k as in `_roots_of_unity`, or None."""
    if x.den != 1:
        return None
    return _roots_of_unity(x.n).get(x.num)


def order_of_root(x):
    """Smallest m with x^m = 1, or None if x is not a root of unity."""
    index = _root_index(cyc(x))
    return None if index is None else index[0]


def sqrt_of_root(x):
    """Principal square root on roots of unity: zeta_m^k -> zeta_(2m)^k.

    Deterministic, so equal inputs always receive equal square roots.
    """
    x = cyc(x)
    index = _root_index(x)
    if index is None:
        raise NotRootOfUnity(f"{x} is not a root of unity")
    m, k = index
    if m == 1:
        return ONE
    return zeta(2 * m, k)


# ---- text grammar ----------------------------------------------------------
#
# expr     := term (('+'|'-') term)*
# term     := factor (('*'|'/') factor)*
# factor   := atom ('^' int)?
# atom     := rational | 'z'INT | '(' expr ')' | '-' factor
# rational := INT ('/' INT)?


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        ch = self.text[self.pos]
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", int(self.text[self.pos : j]), self.pos)
        if ch == "z":
            j = self.pos + 1
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            if j == self.pos + 1:
                raise ParseError("expected conductor after 'z'", self.pos + 1, ("INT",))
            return ("zeta", int(self.text[self.pos + 1 : j]), self.pos)
        if ch in "+-*/^()":
            return (ch, ch, self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos, ("INT", "'z'", "operator"))

    def advance(self):
        kind, value, pos = self.peek()
        if kind == "int":
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        elif kind == "zeta":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        elif kind != "end":
            self.pos += 1
        return kind, value, pos


def _parse_int(tok):
    kind, value, pos = tok.advance()
    sign = 1
    if kind == "-":
        sign = -1
        kind, value, pos = tok.advance()
    if kind != "int":
        raise ParseError("expected integer", pos, ("INT",))
    return sign * value


def _parse_atom(tok):
    kind, value, pos = tok.peek()
    if kind == "-":
        tok.advance()
        return -_parse_factor(tok)
    if kind == "int":
        tok.advance()
        save = tok.pos
        k2, _, _ = tok.peek()
        if k2 == "/":
            tok.advance()
            k3, v3, _ = tok.peek()
            if k3 == "int":
                tok.advance()
                return cyc(Fraction(value, v3))
            tok.pos = save
        return cyc(value)
    if kind == "zeta":
        tok.advance()
        if value < 1:
            raise ParseError("conductor must be positive", pos, ("INT>=1",))
        return zeta(value, 1)
    if kind == "(":
        tok.advance()
        inner = _parse_expr(tok)
        k2, _, pos2 = tok.advance()
        if k2 != ")":
            raise ParseError("expected ')'", pos2, ("')'",))
        return inner
    raise ParseError("expected atom", pos, ("INT", "'z'N", "'('", "'-'"))


def _parse_factor(tok):
    base = _parse_atom(tok)
    kind, _, _ = tok.peek()
    if kind == "^":
        tok.advance()
        expo = _parse_int(tok)
        return base**expo
    return base


def _parse_term(tok):
    value = _parse_factor(tok)
    while True:
        kind, _, _ = tok.peek()
        if kind == "*":
            tok.advance()
            value = value * _parse_factor(tok)
        elif kind == "/":
            tok.advance()
            value = value / _parse_factor(tok)
        else:
            return value


def _parse_expr(tok):
    value = _parse_term(tok)
    while True:
        kind, _, _ = tok.peek()
        if kind == "+":
            tok.advance()
            value = value + _parse_term(tok)
        elif kind == "-":
            tok.advance()
            value = value - _parse_term(tok)
        else:
            return value


def parse_cyclo(text):
    tok = _Tokenizer(text)
    value = _parse_expr(tok)
    kind, _, pos = tok.peek()
    if kind != "end":
        raise ParseError("trailing input", pos, ("end",))
    return value


def render(x):
    """Canonical text form: basis terms sorted by exponent, c*zN^k."""
    x = cyc(x)
    if x.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(x.coeffs()):
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            z = f"z{x.n}" if k == 1 else f"z{x.n}^{k}"
            body = z if mag == 1 else f"{mag}*{z}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
