"""Affine representations of the punctured-sphere group and the braid action.

A representation sends the i-th puncture loop to z -> lambda_i z + tau_i.
Pure braids fix the linear part (lambda_1, ..., lambda_n) and act linearly
on the translation parts.  After conjugating tau_1 to 0, conjugacy classes
with nontrivial linear part live in P^(n-3) with homogeneous coordinates
[tau_2 : ... : tau_(n-1)], plus the isolated abelian class [0].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .braid import BraidWord, PureLetter
from .cyclo import Cyclotomic, _int_inverse, _mul_mod, cyc, euler_phi, order_of_root
from .kernel import BoundExceeded, bfs
from .linalg import Mat

ZERO = cyc(0)
ONE = cyc(1)


class ZeroScale(ValueError):
    pass


class LinearPartFirstTrivial(ValueError):
    pass


@dataclass(frozen=True)
class LinearPart:
    """lambda: Lambda_n -> C*, given by the n values on the puncture loops."""

    lambdas: tuple[Cyclotomic, ...]

    def __post_init__(self):
        lambdas = tuple(cyc(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lambdas)
        if len(lambdas) < 3:
            raise ValueError("need at least 3 punctures")
        prod = ONE
        for x in lambdas:
            prod = prod * x
        if prod != ONE:
            raise ValueError("product of the linear part must be 1")

    @property
    def n(self):
        return len(self.lambdas)

    def iota(self):
        """Nontriviality index: number of lambda_i different from 1."""
        return sum(1 for x in self.lambdas if x != ONE)

    def orders(self):
        """Order of each lambda_i as a root of unity (None if not one)."""
        return tuple(order_of_root(x) for x in self.lambdas)

    def is_root_of_unity_part(self):
        return all(o is not None for o in self.orders())

    def conductor(self):
        c = 1
        for x in self.lambdas:
            c = lcm(c, x.n)
        return c

    def rotated(self, r):
        lam = self.lambdas
        return LinearPart(lam[r:] + lam[:r])


@dataclass(frozen=True)
class AffineRep:
    """Linear part plus translations tau_1..tau_(n-1); tau_n is derived.

    The derived value enforces tau_1 + lambda_1 tau_2 + ...
    + (lambda_1..lambda_(n-1)) tau_n = 0, which encodes that the product
    of all puncture loops is trivial.
    """

    linear: LinearPart
    tau: tuple[Cyclotomic, ...]

    def __post_init__(self):
        tau = tuple(cyc(t) for t in self.tau)
        object.__setattr__(self, "tau", tau)
        if len(tau) != self.linear.n - 1:
            raise ValueError("tau must have n-1 entries; tau_n is derived")

    @property
    def n(self):
        return self.linear.n

    def tau_n(self):
        lam = self.linear.lambdas
        acc = ZERO
        prefix = ONE
        for i in range(self.n - 1):
            acc = acc + prefix * self.tau[i]
            prefix = prefix * lam[i]
        return -acc / prefix

    def tau_full(self):
        return self.tau + (self.tau_n(),)

    @staticmethod
    def from_full_tau(linear, tau_full):
        tau_full = tuple(cyc(t) for t in tau_full)
        if len(tau_full) != linear.n:
            raise ValueError("full tau must have n entries")
        rep = AffineRep(linear, tau_full[: linear.n - 1])
        if rep.tau_n() != tau_full[-1]:
            raise ValueError("tau_n inconsistent with the product relation")
        return rep


def conjugate(rep, a, b):
    """Overall conjugation by z -> a z + b on translation parts."""
    a, b = cyc(a), cyc(b)
    if a.is_zero():
        raise ZeroScale("conjugation scale must be nonzero")
    lam = rep.linear.lambdas
    tau = tuple(a * t + b * (ONE - lam[i]) for i, t in enumerate(rep.tau))
    return AffineRep(rep.linear, tau)


@dataclass(frozen=True)
class ProjClass:
    """Point of P^(n-3): coordinates [tau_2 : ... : tau_(n-1)] on {tau_1=0}.

    Canonical form scales the first nonzero coordinate to 1; the class of
    abelian representations is the separate flag `is_zero_class`.
    """

    n: int
    coords: tuple[Cyclotomic, ...]
    is_zero_class: bool = False

    def __post_init__(self):
        coords = tuple(cyc(x) for x in self.coords)
        if self.is_zero_class:
            coords = tuple([ZERO] * (self.n - 2))
        else:
            if len(coords) != self.n - 2:
                raise ValueError(f"need {self.n - 2} coordinates")
            pivot = next((x for x in coords if not x.is_zero()), None)
            if pivot is None:
                object.__setattr__(self, "is_zero_class", True)
            else:
                inv = pivot.inverse()
                coords = tuple(inv * x for x in coords)
        object.__setattr__(self, "coords", coords)

    def key(self, conductor):
        return (self.is_zero_class,) + tuple(x.key_at(conductor) for x in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjClass):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.is_zero_class or other.is_zero_class:
            return self.is_zero_class == other.is_zero_class
        return all(a == b for a, b in zip(self.coords, other.coords))

    __hash__ = None


def rotation_for_nontrivial_first(linear):
    """Smallest r such that rotating the punctures by r gives lambda_1 != 1."""
    for r in range(linear.n):
        if linear.lambdas[r] != ONE:
            return r
    raise LinearPartFirstTrivial("linear part is trivial")


def normalize(rep, allow_rotation=True):
    """Conjugacy class of a representation as (ProjClass, rotation used)."""
    rot = 0
    if rep.linear.lambdas[0] == ONE:
        if not allow_rotation:
            raise LinearPartFirstTrivial("lambda_1 = 1; pass allow_rotation=True")
        rot = rotation_for_nontrivial_first(rep.linear)
        full = rep.tau_full()
        rep = AffineRep.from_full_tau(
            rep.linear.rotated(rot), full[rot:] + full[:rot]
        )
    lam = rep.linear.lambdas
    b = -rep.tau[0] / (ONE - lam[0])
    shifted = conjugate(rep, ONE, b)
    assert shifted.tau[0].is_zero()
    return ProjClass(rep.n, shifted.tau[1:]), rot


# ---- action matrices -------------------------------------------------------


def action_matrix_full(linear, i, j):
    """(n-1)x(n-1) matrix of sigma_{i,j}^2 on (tau_1, ..., tau_(n-1))."""
    n = linear.n
    if not (1 <= i < j <= n - 1):
        raise IndexError(f"need 1 <= i < j <= n-1, got ({i},{j}), n={n}")
    lam = linear.lambdas

    def prod(a, b):  # lambda_a * ... * lambda_b, 1-based inclusive
        p = ONE
        for m in range(a, b + 1):
            p = p * lam[m - 1]
        return p

    li, lj = lam[i - 1], lam[j - 1]
    rows = [[ONE if r == c else ZERO for c in range(n - 1)] for r in range(n - 1)]
    # row i: tau_i' = lj tau_i + (1-li) prod(i..j) tau_j
    #        + (1-li)(1-lj) sum_{k=i..j} prod(i..k-1) tau_k
    ri = [ZERO] * (n - 1)
    ri[i - 1] = lj
    ri[j - 1] = (ONE - li) * prod(i, j)
    for k in range(i, j + 1):
        ri[k - 1] = ri[k - 1] + (ONE - li) * (ONE - lj) * prod(i, k - 1)
    rows[i - 1] = ri
    # row j: tau_j' = li tau_j + (1-lj) prod(i+1..j-1)^-1 tau_i
    #        - (1-li)(1-lj) sum_{k=i+1..j-1} prod(k..j-1)^-1 tau_k
    rj = [ZERO] * (n - 1)
    rj[j - 1] = li
    rj[i - 1] = (ONE - lj) * prod(i + 1, j - 1).inverse()
    for k in range(i + 1, j):
        rj[k - 1] = rj[k - 1] - (ONE - li) * (ONE - lj) * prod(k, j - 1).inverse()
    rows[j - 1] = rj
    return Mat.from_rows(rows)


def action_matrix_reduced(linear, i, j):
    """(n-2)x(n-2) matrix of sigma_{i,j}^2 on the section {tau_1 = 0}."""
    n = linear.n
    lam = linear.lambdas
    if lam[0] == ONE:
        raise LinearPartFirstTrivial("reduce requires lambda_1 != 1")
    if not (1 <= i < j <= n - 1):
        raise IndexError(f"need 1 <= i < j <= n-1, got ({i},{j}), n={n}")
    if i != 1:
        full = action_matrix_full(linear, i, j)
        return Mat.from_rows(
            [[full[r, c] for c in range(1, n - 1)] for r in range(1, n - 1)]
        )

    def prod(a, b):
        p = ONE
        for m in range(a, b + 1):
            p = p * lam[m - 1]
        return p

    l1, lj = lam[0], lam[j - 1]
    rows = []
    for nu in range(2, n):
        row = [ZERO] * (n - 2)
        if nu == j:
            row[j - 2] = l1 - (ONE - lj) * prod(1, j - 1)
            for k in range(2, j):
                row[k - 2] = -(ONE - lj) * (
                    (ONE - l1) * prod(k, j - 1).inverse() + (ONE - lj) * prod(1, k - 1)
                )
        else:
            row[nu - 2] = ONE
            lnu = lam[nu - 1]
            row[j - 2] = row[j - 2] - (ONE - lnu) * prod(1, j - 1)
            for k in range(2, j):
                row[k - 2] = row[k - 2] - (ONE - lnu) * (ONE - lj) * prod(1, k - 1)
        rows.append(row)
    return Mat.from_rows(rows)


def reduced_generators(linear, include_inverses=True):
    """All reduced matrices M_{i,j} (and inverses), skipping identities."""
    n = linear.n
    gens = []
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            m = action_matrix_reduced(linear, i, j)
            if m.is_identity():
                continue
            gens.append(m)
            if include_inverses:
                gens.append(m.inverse())
    return gens


def apply_braid(cls, letters, linear):
    """Apply a pure word (PureLetter sequence) to a projective class."""
    if cls.is_zero_class:
        return cls
    coords = list(cls.coords)
    for let in reversed(list(letters)):
        m = action_matrix_reduced(linear, let.i, let.j)
        if let.sign < 0:
            m = m.inverse()
        coords = list(m.apply(coords))
    return ProjClass(cls.n, tuple(coords))


# ---- representation-level action (handles non-pure words) ------------------


def act_sigma_on_rep(lambdas, taus, s):
    """One letter sigma_s^(+-1) acting on full (lambda, tau) n-tuples."""
    lam = list(lambdas)
    tau = list(taus)
    i = abs(s) - 1
    li, lj = lam[i], lam[i + 1]
    ti, tj = tau[i], tau[i + 1]
    lam[i], lam[i + 1] = lj, li
    if s > 0:
        # a_i -> a_i a_(i+1) a_i^-1, a_(i+1) -> a_i
        tau[i], tau[i + 1] = li * tj + (ONE - lj) * ti, ti
    else:
        # a_i -> a_(i+1), a_(i+1) -> a_(i+1)^-1 a_i a_(i+1)
        tau[i], tau[i + 1] = tj, (ti - (ONE - li) * tj) / lj
    return lam, tau


def apply_word_to_rep(rep, word):
    """Apply a braid word to a representation (rightmost letter first).

    The word may permute the linear part; the result records whatever
    linear part comes out.
    """
    lam = list(rep.linear.lambdas)
    tau = list(rep.tau_full())
    for s in reversed(word.letters):
        lam, tau = act_sigma_on_rep(lam, tau, s)
    return AffineRep.from_full_tau(LinearPart(tuple(lam)), tuple(tau))


def evaluate_free_word(rep, word):
    """Affine map (a, b) of a free-group word under the representation."""
    lam = rep.linear.lambdas
    tau = rep.tau_full()
    a, b = ONE, ZERO
    for s in word:
        g = abs(s) - 1
        la, ta = lam[g], tau[g]
        if s < 0:
            la, ta = la.inverse(), -tau[g] / lam[g]
        a, b = a * la, a * ta + b
    return a, b


def rep_from_hurwitz(rep, free_tuple):
    """Representation with alpha_i sent to the evaluated transformed words."""
    maps = [evaluate_free_word(rep, w) for w in free_tuple.words]
    lam = LinearPart(tuple(a for a, _ in maps))
    return AffineRep.from_full_tau(lam, tuple(b for _, b in maps))


def matrix_of_sigma(linear, i):
    """Matrix of the full braid generator sigma_i on the section {tau_1=0}.

    Requires lambda_i = lambda_(i+1) (so sigma_i preserves the linear
    part) and 1 <= i <= n-2.
    """
    n = linear.n
    if not (1 <= i <= n - 2):
        raise IndexError("need 1 <= i <= n-2")
    if linear.lambdas[i - 1] != linear.lambdas[i]:
        raise ValueError("sigma_i preserves the linear part only when "
                         "lambda_i = lambda_(i+1)")
    cols = []
    for k in range(n - 2):
        coords = [ZERO] * (n - 2)
        coords[k] = ONE
        rep = AffineRep(linear, (ZERO,) + tuple(coords))
        lam, tau = act_sigma_on_rep(list(linear.lambdas), list(rep.tau_full()), i)
        out = AffineRep.from_full_tau(LinearPart(tuple(lam)), tuple(tau))
        b = -out.tau[0] / (ONE - lam[0])
        shifted = conjugate(out, ONE, b)
        cols.append(shifted.tau[1:])
    return Mat.from_rows([[cols[c][r] for c in range(n - 2)] for r in range(n - 2)])


# ---- orbit enumeration -----------------------------------------------------


@dataclass
class OrbitResult:
    points: list[ProjClass] = field(default_factory=list)
    size: int = 0
    exceeded_bound: bool = False


def _int_vectors(values, conductor):
    """Integer power-basis vectors of `values` at `conductor`.

    All are scaled by the lcm of their denominators, so their ratios stay.
    """
    promoted = [x.promote(conductor) for x in values]
    den = 1
    for x in promoted:
        den = lcm(den, x.den)
    return [[c * (den // x.den) for c in x.num] for x in promoted]


def _int_action(m, conductor):
    """Integer matrix of the projective action of `m` on coefficient vectors.

    A point of P^(d-1) over Q(zeta_N) is a vector in Z^(d*phi): coordinate
    k occupies slots k*phi .. k*phi+phi-1.  Scaling `m` to integer entries
    does not change its projective action; entry (i, k) then becomes the
    phi x phi block of multiplication by it mod Phi_N.  The result is stored
    by columns: for each input slot, the (output slot, coefficient) pairs
    that are nonzero.
    """
    d = m.rows
    phi = euler_phi(conductor)
    entries = _int_vectors(m.entries, conductor)
    cols = []
    for k in range(d):
        for t in range(phi):
            unit = [0] * phi
            unit[t] = 1
            col = []
            for i in range(d):
                block_col = _mul_mod(conductor, entries[i * d + k], unit)
                col.extend((i * phi + r, a) for r, a in enumerate(block_col) if a)
            cols.append(tuple(col))
    return cols


def _canon(w, conductor, phi, inverses):
    """Canonical integer vector of the point [w].

    The first nonzero coordinate becomes a positive integer c and the
    vector is primitive: read as coordinates over the denominator c, that
    is ProjClass's form with the first nonzero coordinate equal to 1.  The
    zero vector stays as it is.  `inverses` maps a primitive pivot to its
    `_int_inverse`; an orbit meets few distinct pivots (179 for the
    25920-point n=6 orbit, against 345k canonicalizations).
    """
    for i in range(0, len(w), phi):
        if any(w[i : i + phi]):
            break
    else:
        return tuple(w)
    if any(w[i + 1 : i + phi]):
        pivot = w[i : i + phi]
        g = gcd(*pivot)
        key = tuple(x // g for x in pivot)
        try:
            s, c = inverses[key]
        except KeyError:
            s, c = inverses[key] = _int_inverse(conductor, key)
        out = w[:i] + [c * g] + [0] * (phi - 1)
        for k in range(i + phi, len(w), phi):
            out += _mul_mod(conductor, w[k : k + phi], s)
        w = out
    if w[i] < 0:
        w = [-x for x in w]
    g = gcd(*w)
    if g > 1:
        w = [x // g for x in w]
    return tuple(w)


def _proj_class(n, w, conductor, phi):
    """The ProjClass of a canonical integer vector."""
    den = next((x for x in w if x), 1)
    coords = tuple(
        Cyclotomic._make(conductor, list(w[k : k + phi]), den)
        for k in range(0, len(w), phi)
    )
    return ProjClass(n, coords)


def orbit(cls, linear, bound=200_000, gens=None):
    """BFS closure of a class under the reduced action matrices and inverses.

    Stops once more than `bound` points have been found; that outcome
    only means the bound was exceeded, never that the orbit is infinite.

    The search runs on integers at one conductor N, the lcm of the
    conductors of the linear part, the start coordinates and the generator
    entries: points are canonical coefficient vectors (see `_canon`) and
    generators act through `_int_action`.  The points come back as
    ProjClass in discovery order, the first being `cls` itself.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    if cls.is_zero_class:
        return OrbitResult(points=[cls], size=1)
    if gens is None:
        gens = reduced_generators(linear)
    conductor = linear.conductor()
    for x in cls.coords:
        conductor = lcm(conductor, x.n)
    for m in gens:
        for x in m.entries:
            conductor = lcm(conductor, x.n)
    phi = euler_phi(conductor)
    actions = [_int_action(m, conductor) for m in gens]
    dim = len(cls.coords) * phi
    inverses = {}
    start = _canon(
        [c for v in _int_vectors(cls.coords, conductor) for c in v], conductor, phi, inverses
    )

    def step(v):
        for cols in actions:
            w = [0] * dim
            for j, x in enumerate(v):
                if x:
                    for r, a in cols[j]:
                        w[r] += a * x
            yield _canon(w, conductor, phi, inverses)

    try:
        found, exceeded = bfs(start, step, bound), False
    except BoundExceeded as exc:
        found, exceeded = exc.found, True
    points = [cls] + [_proj_class(cls.n, w, conductor, phi) for w in found[1:]]
    return OrbitResult(points=points, size=len(points), exceeded_bound=exceeded)
