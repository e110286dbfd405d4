"""Residue matrices of the linearized isomonodromy connection, the
Lauricella comparison, and numeric monodromy.

Exponents theta_i are rationals; the local system has lambda_j =
e^(-2 pi i theta_j).  The triangular-system linearization has residues
B^{i,j} on (n-1) coordinates; the quotient by the invariant line has
residues C^{i,j} on (n-2) coordinates.  The hypergeometric system of
type F_D with parameters tied to theta by

    beta_i = -theta_i,  alpha = -(theta_1+...+theta_(n-1)),
    gamma = 1 - (theta_1+...+theta_(n-2))

is conjugate to the quotient system by an explicit matrix G built from
three sparse pieces; the conjugation E^{i,j} G = G C^{i,j} and the
determinant of G are asserted exactly.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import Cyclotomic, cyc, zeta
from .kernel import BoundExceeded
from .linalg import Mat

ZERO = cyc(0)
ONE = cyc(1)


class ThetaOneZero(ValueError):
    pass


class DegenerateParameters(ValueError):
    pass


class IntegrationFailure(RuntimeError):
    pass


class PoleTooClose(ValueError):
    pass


class AmbiguousMatch(RuntimeError):
    pass


@dataclass(frozen=True)
class ConnectionSpec:
    """Exponents theta_1..theta_(n-1) of a logarithmic connection family."""

    theta: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(Fraction(t) for t in self.theta))

    @property
    def n(self):
        return len(self.theta) + 1

    def lambdas(self):
        """lambda_j = e^(-2 pi i theta_j) as exact roots of unity."""
        out = []
        for t in self.theta:
            out.append(zeta(t.denominator, -t.numerator))
        return tuple(out)


def residues_B(spec):
    """Residues of the triangular-system linearization, (n-1) x (n-1)."""
    n = spec.n
    th = [cyc(t) for t in spec.theta]
    out = {}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            m = [[ZERO] * (n - 1) for _ in range(n - 1)]
            m[i - 1][i - 1] = th[j - 1]
            m[j - 1][j - 1] = th[i - 1]
            m[i - 1][j - 1] = -th[i - 1]
            m[j - 1][i - 1] = -th[j - 1]
            out[(i, j)] = Mat.from_rows(m)
    return out


def residues_C(spec):
    """Residues of the quotient connection, (n-2) x (n-2); needs theta_1 != 0."""
    if spec.theta[0] == 0:
        raise ThetaOneZero("the quotient construction needs theta_1 != 0")
    n = spec.n
    th = [cyc(t) for t in spec.theta]
    b = residues_B(spec)
    out = {}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            m = [[ZERO] * (n - 2) for _ in range(n - 2)]
            if i == 1:
                for k in range(1, n - 1):
                    if k != j - 1:
                        m[k - 1][j - 2] = th[k]
                m[j - 2][j - 2] = th[j - 1] + th[0]
            else:
                big = b[(i, j)]
                for a in range(n - 2):
                    for c in range(n - 2):
                        m[a][c] = big[a + 1, c + 1]
            out[(i, j)] = Mat.from_rows(m)
    return out


def flatness_check(residues):
    """Infinitesimal braid relations: exact integrability of the family."""
    idx = sorted({i for key in residues for i in key})
    for a in idx:
        for b in idx:
            if not (a < b):
                continue
            for c in idx:
                if not (b < c):
                    continue
                rab, rac, rbc = residues[(a, b)], residues[(a, c)], residues[(b, c)]
                for x, y in ((rab, rac + rbc), (rac, rab + rbc), (rbc, rab + rac)):
                    if x @ y != y @ x:
                        return False
    for (a, b) in residues:
        for (c, d) in residues:
            if len({a, b, c, d}) == 4:
                x, y = residues[(a, b)], residues[(c, d)]
                if x @ y != y @ x:
                    return False
    return True


def wedge_vanishes(residues, points):
    """Independent oracle: Omega ^ Omega evaluated exactly at a point.

    `points` assigns a rational number to each index; all coefficients of
    dt_p ^ dt_q must vanish.
    """
    idx = sorted({i for key in residues for i in key})
    pairs = list(residues.keys())

    def coeff(pair, m):
        i, j = pair
        if m == i:
            return cyc(1) / (cyc(points[i]) - cyc(points[j]))
        if m == j:
            return -(cyc(1) / (cyc(points[i]) - cyc(points[j])))
        return ZERO

    size = next(iter(residues.values())).rows
    for p in idx:
        for q in idx:
            if not (p < q):
                continue
            acc = Mat.zero(size, size)
            for a in pairs:
                for b in pairs:
                    f = coeff(a, p) * coeff(b, q) - coeff(a, q) * coeff(b, p)
                    if not f.is_zero():
                        acc = acc + (residues[a] @ residues[b]).scale(f)
            if any(not e.is_zero() for e in acc.entries):
                return False
    return True


# ---- Lauricella comparison ---------------------------------------------------


@dataclass(frozen=True)
class LauricellaParams:
    alpha: Cyclotomic
    betas: tuple[Cyclotomic, ...]
    gamma: Cyclotomic

    @staticmethod
    def from_theta(spec):
        n = spec.n
        th = [cyc(t) for t in spec.theta]
        betas = tuple(-t for t in th[: n - 3])
        alpha = -sum(th[1:], start=th[0])
        gamma = 1 - sum(th[1 : n - 2], start=th[0])
        return LauricellaParams(alpha, betas, gamma)

    @property
    def N(self):
        return len(self.betas)


def lauricella_E(params, N=None):
    """Residues E^{i,j} of the hypergeometric system, (N+1) x (N+1).

    Pairs run over 1 <= i <= N, i < j <= N+2; poles t_i - t_j with
    t_(N+1) = 0 and t_(N+2) = 1.  (The printed table's repeated -beta_j
    diagonal entry is corrected to -beta_i, which is what the operator
    identities give and what integrability requires.)
    """
    if N is None:
        N = params.N
    alpha, betas, gamma = params.alpha, params.betas, params.gamma
    size = N + 1
    out = {}
    for i in range(1, N + 1):
        for j in range(i + 1, N + 3):
            m = [[ZERO] * size for _ in range(size)]
            if j <= N:
                m[i][i] = -betas[j - 1]
                m[j][j] = -betas[i - 1]
                m[i][j] = betas[i - 1]
                m[j][i] = betas[j - 1]
            elif j == N + 1:
                m[i][i] = 1 - gamma + sum(
                    (betas[t] for t in range(N) if t != i - 1), start=ZERO
                )
                m[0][i] = ONE
                for k in range(2, size + 1):
                    if k != i + 1:
                        m[k - 1][i] = -betas[k - 2]
            else:
                m[i][i] = gamma - (alpha + betas[i - 1] + 1)
                m[i][0] = -alpha * betas[i - 1]
                for l in range(2, size + 1):
                    if l != i + 1:
                        m[i][l - 1] = -betas[i - 1]
            out[(i, j)] = Mat.from_rows(m)
    return out


def g_matrix(spec, check=True):
    """The conjugating matrix G = K + L + M with E^{i,j} G = G C^{i,j}.

    Requires alpha * beta_1 * (gamma - 1 - sum beta_i) != 0; asserts the
    conjugation for every pair with i <= N and the determinant identity
    det(G) = (-1)^N theta_1 (alpha theta_(N+1))^N.
    """
    params = LauricellaParams.from_theta(spec)
    N = params.N
    th = [cyc(t) for t in spec.theta]
    alpha = params.alpha
    nonvanish = alpha * params.betas[0] * (params.gamma - 1 - sum(params.betas, start=ZERO))
    if nonvanish.is_zero():
        raise DegenerateParameters(
            "alpha * beta_1 * (gamma - 1 - sum(beta)) must not vanish"
        )
    size = N + 1
    rows = [[ZERO] * size for _ in range(size)]
    for j in range(size):
        rows[0][j] = th[N]  # K: first row of theta_(N+1)
    rows[0][N - 1] = rows[0][N - 1] + alpha  # L top entry, column N
    for i in range(1, size):
        rows[i][N - 1] = rows[i][N - 1] + alpha * th[i - 1]  # L column N
    for j in range(1, N):
        rows[j + 1][j - 1] = rows[j + 1][j - 1] - alpha * th[N]  # M subsubdiagonal
    g = Mat.from_rows(rows)
    if check:
        e_fam = lauricella_E(params)
        c_fam = residues_C(spec)
        for key, e in e_fam.items():
            if e @ g != g @ c_fam[key]:
                raise AssertionError(f"conjugation fails at pair {key}")
        expected = th[0] * (alpha * th[N]) ** N
        if N % 2 == 1:
            expected = -expected
        assert g.det() == expected
    return g


def completed_E_family(spec):
    """E residues including the reconstructed (N+1, N+2) residue.

    The printed system omits the residue along the divisor joining the
    two frozen points; conjugating the quotient residue back fills it
    in, making the whole family integrable.
    """
    params = LauricellaParams.from_theta(spec)
    N = params.N
    fam = dict(lauricella_E(params))
    g = g_matrix(spec)
    c_fam = residues_C(spec)
    fam[(N + 1, N + 2)] = g @ c_fam[(N + 1, N + 2)] @ g.inverse()
    return fam


def exp_residue_reflection(c_mat, trace_fraction):
    """Exact exp(-2 pi i C) for a rank-one residue with rational trace.

    With C^2 = trace * C the exponential is I + ((mu - 1)/trace) C where
    mu = e^(-2 pi i trace).  Returns (matrix, mu).  Requires a nonzero
    trace (the resonant trace-zero case is not diagonalizable).
    """
    t = Fraction(trace_fraction)
    if t == 0:
        raise DegenerateParameters("resonant residue: trace zero")
    mu = zeta(t.denominator, -t.numerator)
    factor = (mu - 1) / cyc(t)
    return Mat.identity(c_mat.rows) + c_mat.scale(factor), mu


# ---- numeric monodromy --------------------------------------------------------


def corollary_connection(rank, s_points, sign=+1):
    """Poles and ODE residues of the displayed rank-3 / rank-4 connection.

    The connection reads Z -> dZ + sign * (sum A_p dlog) Z, so horizontal
    sections satisfy dZ = -sign * (sum A_p/(x-p)) Z; with sign = +1 each
    local monodromy has eigenvalues {e^(-2 pi i/3), 1, 1}.
    """
    if rank == 3:
        (s1,) = s_points
        poles = [s1, 0.0, 1.0]
    elif rank == 4:
        s1, s2 = s_points
        poles = [s1, s2, 0.0, 1.0]
    else:
        raise ValueError("rank must be 3 or 4")
    mats = []
    m = len(poles)
    for col in range(m):
        a = np.zeros((m, m), dtype=complex)
        for row in range(m):
            a[row, col] = 1 / 3 if row == col else 1 / 6
        mats.append(-sign * a)
    return poles, mats


def monodromy_numeric(poles, residues, base=None, local_tol=1e-12, radius_factor=0.4):
    """Monodromy matrices along counterclockwise loops around each pole.

    The connection is dZ = (sum_p A_p / (x - p)) dx Z.  Loops run from
    the base point straight toward the pole, once around the circle of
    radius radius_factor * (distance to nearest other pole), and back.
    Returns one matrix per pole, in the order given.

    Each loop is three pieces: the segment base -> entry, the circle and
    the segment entry -> base.  Every piece of every loop is parametrized
    by s in [0, 1] as x(s) = start + s*slope + swing*e^(2 pi i s) (swing
    = 0 on a segment, slope = 0 on a circle), with the exact derivative
    x'(s) = slope + 2 pi i swing e^(2 pi i s), and its transport is solved
    from I.  The 3k transports of k poles are one stack, advanced together
    by adaptive RK4 with step doubling on one shared parameter step: a
    step is accepted only if every transport's error estimate is within
    local_tol * (1 + its largest entry), and the step doubles only if
    every one is below 1/32 of that.  The monodromy of a pole is
    T_out @ T_circle @ T_in.
    """
    poles = [complex(p) for p in poles]
    if not all(cmath.isfinite(p) for p in poles):
        raise ValueError("poles must be finite")
    if not (local_tol > 0 and math.isfinite(local_tol)):
        raise ValueError("local_tol must be positive and finite")
    m = len(residues[0])
    gaps = []
    for i, p in enumerate(poles):
        others = [abs(p - q) for j, q in enumerate(poles) if j != i]
        gaps.append(min(others) if others else 2.0)
    if any(g < 1e-8 for g in gaps):
        raise PoleTooClose("two poles nearly coincide")
    if base is None:
        re = [p.real for p in poles]
        im = [p.imag for p in poles]
        spread = max(max(re) - min(re), max(im) - min(im), 1.0)
        base = complex((max(re) + min(re)) / 2, min(im) - 1.5 * spread)
    base = complex(base)
    if not cmath.isfinite(base):
        raise ValueError("the base point must be finite")
    if any(abs(base - p) < 1e-8 for p in poles):
        raise PoleTooClose("base point sits on a pole")

    k = len(poles)
    # the stack holds the k segments in, then the k circles, then the k
    # segments out, in the order of the poles
    start = np.empty(3 * k, dtype=complex)
    slope = np.zeros(3 * k, dtype=complex)
    swing = np.zeros(3 * k, dtype=complex)
    for i, p in enumerate(poles):
        r = radius_factor * min(gaps[i], abs(base - p))
        u = (base - p) / abs(base - p)
        entry = p + r * u
        start[i], slope[i] = base, entry - base
        start[k + i], swing[k + i] = p, r * u
        start[2 * k + i], slope[2 * k + i] = entry, base - entry
    pole_array = np.array(poles)
    flat = np.stack([np.asarray(a, dtype=complex) for a in residues]).reshape(k, m * m)
    quarters = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

    def coeffs(t, h):
        """x'(s) sum_p A_p / (x(s) - p) for every piece at s = t + (0..4) h/4."""
        s = (t + h * quarters)[:, None]
        turn = swing * np.exp(2j * np.pi * s)
        x = start + s * slope + turn
        dx = slope + 2j * np.pi * turn
        return ((dx[..., None] / (x[..., None] - pole_array)) @ flat).reshape(5, 3 * k, m, m)

    def rk4(a0, a_mid, a1, h, z):
        k1 = a0 @ z
        k2 = a_mid @ (z + (h / 2) * k1)
        k3 = a_mid @ (z + (h / 2) * k2)
        k4 = a1 @ (z + h * k3)
        return z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    z = np.tile(np.eye(m, dtype=complex), (3 * k, 1, 1))
    t = 0.0
    h = 0.05
    min_h = 1e-13
    while t < 1.0:
        h = min(h, 1.0 - t)
        a = coeffs(t, h)
        z1 = rk4(a[0], a[2], a[4], h, z)
        z2 = rk4(a[0], a[1], a[2], h / 2, z)
        z2 = rk4(a[2], a[3], a[4], h / 2, z2)
        err = np.abs(z1 - z2).max(axis=(1, 2)) / 15
        room = local_tol * (1 + np.abs(z2).max(axis=(1, 2)))
        if (err <= room).all():
            z = z2 + (z2 - z1) / 15
            t += h
            if (err < room / 32).all():
                h *= 2
        else:
            h /= 2
            if h < min_h:
                raise IntegrationFailure("step size underflow")
    return list(z[2 * k :] @ z[k : 2 * k] @ z[:k])


def local_eigenvalues(mat):
    return sorted(np.linalg.eigvals(mat), key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def numeric_closure(mats, tol=1e-6, bound=200_000):
    """Size of the group generated by `mats`, matching up to `tol`.

    A product matches a stored element when their max entry distance is
    below tol; a nearest stored element between tol and 2*tol raises
    AmbiguousMatch, so matches are unambiguous.  More than `bound`
    elements raise BoundExceeded with the first bound+1 of them.

    Elements are bucketed by v = <w, vec(m)> for one fixed random complex
    w with |w|_1 = 1, on a grid of step max(100 tol, 1e-4).  Two matrices
    within 2*tol in max-norm differ by at most 2*tol in v.  So an element
    is stored under every cell that a point within 3*tol of its v (2*tol
    and room for rounding) falls in, in each part: at most 2 x 2 cells,
    usually one, as 6*tol is below the grid step.  A product looks up
    the one cell that holds its own v, and every element that decides a
    match or an ambiguity is among its candidates.  The products of a BFS
    level are formed at once and inserted one by one, item first, then
    generator.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        raise ValueError("numeric_closure needs at least one generator")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(m.shape != shape for m in mats):
        raise ValueError(
            f"generators must be square matrices of one shape, got {[m.shape for m in mats]}"
        )
    if not all(np.isfinite(m).all() for m in mats):
        raise ValueError("generator entries must be finite")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    dim = shape[0]
    gens = np.stack(mats)
    grid = max(tol * 100, 1e-4)
    # the standard library's generator: numpy.random would add about 6 MB
    # to the resident size of every process that closes a group
    rng = random.Random(0)
    w = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim * dim)])
    w /= np.abs(w).sum()

    stored = []
    buckets = {}
    reach = 3 * tol

    def cells(ms):
        """The grid cell of each matrix's v, and the v itself."""
        v = (ms.reshape(len(ms), -1) * w).sum(axis=1)
        re = np.rint(v.real / grid).astype(np.int64).tolist()
        im = np.rint(v.imag / grid).astype(np.int64).tolist()
        return zip(zip(re, im), v.tolist())

    def insert(m, cell, v):
        cand = buckets.get(cell)
        if cand:
            best = min(np.abs(stored[i] - m).max() for i in cand)
            if best < tol:
                return False
            if best < 2 * tol:
                raise AmbiguousMatch(
                    f"element at distance {best:.2e} is between tol and 2 tol"
                )
        for x in {round((v.real + dr) / grid) for dr in (-reach, reach)}:
            for y in {round((v.imag + di) / grid) for di in (-reach, reach)}:
                buckets.setdefault((x, y), []).append(len(stored))
        # a copy, so that the level's product array is not kept alive
        stored.append(m.copy())
        return True

    frontier = np.eye(dim, dtype=complex)[None]
    insert(frontier[0], *next(cells(frontier)))
    while len(frontier):
        prods = (gens[None] @ frontier[:, None]).reshape(-1, dim, dim)
        fresh = []
        for i, (cell, v) in enumerate(cells(prods)):
            if insert(prods[i], cell, v):
                if len(stored) > bound:
                    raise BoundExceeded(bound, stored)
                fresh.append(i)
        frontier = prods[fresh]
    return len(stored)
