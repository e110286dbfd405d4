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
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import Cyclotomic, cyc, zeta
from .kernel import BoundExceeded, RowIndex
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

# monodromy_numeric steps at most this many subintervals at once, which
# bounds the memory of the stage arrays
_STEP_BATCH = 64
# a round of monodromy_numeric steps at most this many subintervals, which
# bounds the memory of the queue
_ROUND = 512

# The Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett and Wanner,
# Solving ODEs I, 2nd ed., 1993, II.5 and II.10): the nodes c_i, the stage
# matrix a (each row from its nonzero entries), the 8th-order weights b,
# and the weights of the 3rd- and 5th-order error estimates; the 3rd-order
# one is b minus the weights of the embedded 3rd-order method.


def _dense(weights):
    out = np.zeros(12)
    for j, w in weights.items():
        out[j] = w
    return out


DOP853_C = np.array(
    [
        0.0,
        0.526001519587677318785587544488e-1,
        0.789002279381515978178381316732e-1,
        0.118350341907227396726757197510,
        0.281649658092772603273242802490,
        0.333333333333333333333333333333,
        0.25,
        0.307692307692307692307692307692,
        0.651282051282051282051282051282,
        0.6,
        0.857142857142857142857142857142,
        1.0,
    ]
)
DOP853_A = np.stack(
    [
        _dense(row)
        for row in (
            {},
            {0: 5.26001519587677318785587544488e-2},
            {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
            {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
            {
                0: 2.41365134159266685502369798665e-1,
                2: -8.84549479328286085344864962717e-1,
                3: 9.24834003261792003115737966543e-1,
            },
            {
                0: 3.7037037037037037037037037037e-2,
                3: 1.70828608729473871279604482173e-1,
                4: 1.25467687566822425016691814123e-1,
            },
            {
                0: 3.7109375e-2,
                3: 1.70252211019544039314978060272e-1,
                4: 6.02165389804559606850219397283e-2,
                5: -1.7578125e-2,
            },
            {
                0: 3.70920001185047927108779319836e-2,
                3: 1.70383925712239993810214054705e-1,
                4: 1.07262030446373284651809199168e-1,
                5: -1.53194377486244017527936158236e-2,
                6: 8.27378916381402288758473766002e-3,
            },
            {
                0: 6.24110958716075717114429577812e-1,
                3: -3.36089262944694129406857109825,
                4: -8.68219346841726006818189891453e-1,
                5: 2.75920996994467083049415600797e1,
                6: 2.01540675504778934086186788979e1,
                7: -4.34898841810699588477366255144e1,
            },
            {
                0: 4.77662536438264365890433908527e-1,
                3: -2.48811461997166764192642586468,
                4: -5.90290826836842996371446475743e-1,
                5: 2.12300514481811942347288949897e1,
                6: 1.52792336328824235832596922938e1,
                7: -3.32882109689848629194453265587e1,
                8: -2.03312017085086261358222928593e-2,
            },
            {
                0: -9.3714243008598732571704021658e-1,
                3: 5.18637242884406370830023853209,
                4: 1.09143734899672957818500254654,
                5: -8.14978701074692612513997267357,
                6: -1.85200656599969598641566180701e1,
                7: 2.27394870993505042818970056734e1,
                8: 2.49360555267965238987089396762,
                9: -3.0467644718982195003823669022,
            },
            {
                0: 2.27331014751653820792359768449,
                3: -1.05344954667372501984066689879e1,
                4: -2.00087205822486249909675718444,
                5: -1.79589318631187989172765950534e1,
                6: 2.79488845294199600508499808837e1,
                7: -2.85899827713502369474065508674,
                8: -8.87285693353062954433549289258,
                9: 1.23605671757943030647266201528e1,
                10: 6.43392746015763530355970484046e-1,
            },
        )
    ]
)
DOP853_B = _dense(
    {
        0: 5.42937341165687622380535766363e-2,
        5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044,
        7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1,
        9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1,
        11: 4.47106157277725905176885569043e-2,
    }
)
DOP853_E3 = DOP853_B - _dense(
    {
        0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1,
    }
)
DOP853_E5 = _dense(
    {
        0: 0.1312004499419488073250102996e-1,
        5: -0.1225156446376204440720569753e1,
        6: -0.4957589496572501915214079952,
        7: 0.1664377182454986536961530415e1,
        8: -0.3503288487499736816886487290,
        9: 0.3341791187130174790297318841,
        10: 0.8192320648511571246570742613e-1,
        11: -0.2235530786388629525884427845e-1,
    }
)


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
    from I.  The monodromy of a pole is T_out @ T_circle @ T_in.

    Method: a linear equation's transport over [0, 1] is the product of
    its transports over the parts of [0, 1], later @ earlier, and each
    part's can be solved from I on its own (Nievergelt, CACM 7, 1964).
    Each piece starts as one subinterval of [0, 1].  A round takes one
    step from I over up to _ROUND pending subintervals of all the pieces,
    the leftmost first, with the Dormand-Prince 8(5,3) embedded pair
    (DOP853; Hairer, Norsett and Wanner, Solving ODEs I, II.10).  They are
    stepped side by side, _STEP_BATCH at a time: the coefficients are
    evaluated at the twelve nodes left + c_i width of each, and each stage
    is one combination of the earlier stages and one product with the
    coefficients at its node, taken element by element, so that no
    subinterval's result depends on the others stepped with it.  An
    accepted subinterval keeps its transport; the accepted ones before a
    piece's first pending one are multiplied together pairwise and folded
    into the piece's transport at the end of each round.  For the
    corollary connections at ranks 3 and 4 no round reaches _ROUND, so
    each steps every pending subinterval;
    the cap bounds the memory of runs that need many more, and a
    transport that overflows is found in the round that folds it.

    Error test: each subinterval passes its own.  With e5 and e3 the
    largest entries of its 5th- and 3rd-order error estimates (both
    scaled by the width h), its step is accepted only if e5^2 / sqrt(e5^2
    + 0.01 e3^2) <= local_tol * (1 + the largest entry of its transport).

    Controller: a rejected subinterval, with r the ratio of the two sides,
    is split into clip(ceil(r^(1/8) / 0.9), 2, 5) equal parts, the step
    that h * clip(0.9 r^(-1/8), 0.2, 10) would give after a rejection.

    Failures: PoleTooClose before integrating if two poles, or the base
    point and a pole, lie within 1e-8, or a segment base -> entry passes
    within 1e-8 of another pole.  IntegrationFailure for a non-finite
    error estimate (at the left end of the first such subinterval), for a
    rejected subinterval narrower than 1e-13, for a transport or a
    monodromy that is no longer finite (each subinterval's transport may
    be finite while their product overflows), and at once for a local_tol
    below machine epsilon: the estimate sees only truncation error, and
    below that the rounding of each update is not negligible.
    """
    poles = [complex(p) for p in poles]
    if not all(cmath.isfinite(p) for p in poles):
        raise ValueError("poles must be finite")
    if not (local_tol > 0 and math.isfinite(local_tol)):
        raise ValueError("local_tol must be positive and finite")
    eps = np.finfo(float).eps
    if local_tol < eps:
        raise IntegrationFailure(
            f"local_tol {local_tol:g} is below the rounding error of a step ({eps:.1e})"
        )
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
    # the pieces are the k segments in, then the k circles, then the k
    # segments out, in the order of the poles
    start = np.empty(3 * k, dtype=complex)
    slope = np.zeros(3 * k, dtype=complex)
    swing = np.zeros(3 * k, dtype=complex)
    for i, p in enumerate(poles):
        r = radius_factor * min(gaps[i], abs(base - p))
        u = (base - p) / abs(base - p)
        entry = p + r * u
        for j, q in enumerate(poles):
            if j != i and _segment_distance(q, base, entry) < 1e-8:
                raise PoleTooClose(
                    f"the path from the base point {base} to pole {p} passes through pole {q}"
                )
        start[i], slope[i] = base, entry - base
        start[k + i], swing[k + i] = p, r * u
        start[2 * k + i], slope[2 * k + i] = entry, base - entry
    pole_array = np.array(poles)
    flat = np.stack([np.asarray(a, dtype=complex) for a in residues]).reshape(k, m * m)
    n_stages = len(DOP853_C)
    # the 8th-order update and the 5th- and 3rd-order error estimates
    weights = np.stack([DOP853_B, DOP853_E5, DOP853_E3])[:, :, None, None, None]
    stage_rows = DOP853_A[:, :, None, None, None]
    eye = np.eye(m, dtype=complex)[:, :, None]

    def step(piece, left, width):
        """One DOP853 step from I over each subinterval [left, left + width]
        of its piece: the transports and the error ratios.

        Subintervals run along the last axis, and every sum is taken
        element by element in a fixed order, so that a subinterval's
        result does not depend on the others stepped with it."""
        s = DOP853_C[:, None] * width + left
        turn = swing[piece] * np.exp(2j * np.pi * s)
        x = start[piece] + s * slope[piece] + turn
        dx = slope[piece] + 2j * np.pi * turn
        # h x'(s) sum_p A_p / (x(s) - p) at each node
        w = (width * dx)[:, None] / (x[:, None] - pole_array[:, None])
        a = w[:, 0, None] * flat[0, :, None]
        for q in range(1, k):
            a += w[:, q, None] * flat[q, :, None]
        a = a.reshape(n_stages, m, m, -1)
        stages = np.empty_like(a)  # h times the derivative at each stage
        stages[0] = a[0]
        for i in range(1, n_stages):
            y = eye + (stage_rows[i, :i] * stages[:i]).sum(axis=0)
            stages[i] = (a[i][:, :, None] * y).sum(axis=1)
        update, est5, est3 = ((row * stages).sum(axis=0) for row in weights)
        z = eye + update
        e5, e3 = (np.abs(e).max(axis=(0, 1)) for e in (est5, est3))
        denom = np.sqrt(e5 * e5 + 0.01 * e3 * e3)
        err = e5 * e5 / np.where(denom > 0, denom, 1.0)
        return z.transpose(2, 0, 1), err / (local_tol * (1 + np.abs(z).max(axis=(0, 1))))

    # the queue: the subintervals not yet folded into their piece's
    # transport, in the order of the pieces and of s
    piece = np.arange(3 * k)
    left = np.zeros(3 * k)
    width = np.ones(3 * k)
    transport = np.empty((3 * k, m, m), dtype=complex)
    accepted = np.zeros(3 * k, dtype=bool)
    whole = np.tile(np.eye(m, dtype=complex), (3 * k, 1, 1))
    while len(piece):
        todo = np.flatnonzero(~accepted)[:_ROUND]
        batches = [todo[a : a + _STEP_BATCH] for a in range(0, len(todo), _STEP_BATCH)]
        z, ratio = map(np.concatenate, zip(*(step(piece[b], left[b], width[b]) for b in batches)))
        bad = ~np.isfinite(ratio)
        if bad.any():
            raise IntegrationFailure(f"non-finite error estimate at s = {left[todo[bad]][0]:.6g}")
        ok = ratio <= 1.0
        transport[todo[ok]] = z[ok]
        accepted[todo[ok]] = True
        split = todo[~ok]
        if len(split):
            if (width[split] < 1e-13).any():
                raise IntegrationFailure("step size underflow")
            parts = np.ones(len(piece), dtype=np.int64)
            parts[split] = np.clip(np.ceil(ratio[~ok] ** 0.125 / 0.9), 2, 5)
            # part j of a subinterval starts j of its widths past the left end
            j = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
            piece, left, width, transport, accepted = (
                np.repeat(v, parts, axis=0) for v in (piece, left, width / parts, transport, accepted)
            )
            left = left + j * width
        # a piece's transport is the product of its subintervals' transports,
        # later @ earlier; the head of a piece, the accepted subintervals
        # before its first pending one, is folded in
        waiting = np.cumsum(~accepted)
        head = waiting == (waiting - ~accepted)[np.searchsorted(piece, piece)]
        with np.errstate(over="ignore", invalid="ignore"):
            done, folded = _ordered_products(transport[head], piece[head])
            whole[folded] = done @ whole[folded]
        bad = ~np.isfinite(whole[folded]).all(axis=(1, 2))
        if bad.any():
            end = (left + width)[head & (piece == folded[bad][0])].max()
            raise IntegrationFailure(f"the transport is no longer finite at s = {end:.6g}")
        piece, left, width, transport, accepted = (
            v[~head] for v in (piece, left, width, transport, accepted)
        )
    with np.errstate(over="ignore", invalid="ignore"):
        monodromy = whole[2 * k :] @ whole[k : 2 * k] @ whole[:k]
    if not np.isfinite(monodromy).all():
        raise IntegrationFailure("the monodromy of a loop is not finite")
    return list(monodromy)


def _ordered_products(mats, runs):
    """The product of each run of equal values of `runs` (in order), later
    @ earlier, multiplying neighbours pairwise: the products and the run
    values."""
    while len(runs) and (runs[1:] == runs[:-1]).any():
        pos = np.arange(len(runs)) - np.searchsorted(runs, runs)
        even = pos % 2 == 0
        # an even position is paired with the next one of its run, if any
        paired = np.flatnonzero(even & np.append(runs[1:] == runs[:-1], False))
        out = mats[even]
        out[np.searchsorted(np.flatnonzero(even), paired)] = mats[paired + 1] @ mats[paired]
        mats, runs = out, runs[even]
    return mats, runs


def _segment_distance(q, a, b):
    """Distance from the point q to the segment from a to b."""
    d = b - a
    s = min(1.0, max(0.0, ((q - a) * d.conjugate()).real / abs(d) ** 2))
    return abs(q - (a + s * d))


def local_eigenvalues(mat):
    return sorted(np.linalg.eigvals(mat), key=lambda z: (round(z.real, 9), round(z.imag, 9)))


# numeric_closure matches a BFS level in chunks of about this many
# products, which bounds the memory a level takes
_CLOSURE_CHUNK = 4096
# a chunk of fewer products is inserted one product at a time, which
# costs less than the fixed array calls of matching it as a whole
_THIN_CHUNK = 32
# the dict of the thin chunks' cells is moved into the index once it
# holds this many cells, which bounds its memory on one-product levels
_THIN_CELLS = 4096


def _cell_keys(x, y):
    """One int64 key per grid cell, from coordinates in grid steps, not
    yet rounded: the high halves of the rounded coordinates' float bits
    side by side, each XORed with the other's low half.  Cells within
    2**21 steps of 0 have low halves of zero, so their keys differ;
    cells of any size get a key, and cells that share one only add
    candidates."""
    # + 0.0 turns -0.0 into 0.0, so that each cell has one bit pattern
    x, y = ((np.rint(c) + 0.0).view(np.uint64) for c in (x, y))
    return (x ^ (y << 32 | y >> 32)).view(np.int64)


def _cell_key(x, y):
    """`_cell_keys` of the one cell whose rounded coordinates are the ints
    x and y, without array calls."""
    x, y = _FLOAT_BITS.unpack(_FLOATS.pack(x, y))
    key = x ^ ((y << 32 | y >> 32) & 0xFFFFFFFFFFFFFFFF)
    return key - (1 << 64) if key >> 63 else key


_FLOATS = struct.Struct("<dd")
_FLOAT_BITS = struct.Struct("<QQ")


def _level_products(gens, items):
    """vec(g @ m) for every item m and generator g, item first: one
    matrix product of the stacked transposes, (m^T g^T)^T = g m."""
    count, dim = len(items), gens.shape[1]
    prods = items.transpose(0, 2, 1).reshape(-1, dim) @ gens.transpose(2, 0, 1).reshape(dim, -1)
    return prods.reshape(count, dim, len(gens), dim).transpose(0, 2, 3, 1).reshape(-1, dim * dim)


def numeric_closure(mats, tol=1e-6, bound=200_000):
    """Size of the group generated by `mats`, matching up to `tol`.

    A product matches a stored element when their max entry distance is
    below tol; a nearest stored element between tol and 2*tol raises
    AmbiguousMatch, so matches are unambiguous.  More than `bound`
    elements raise BoundExceeded with the first bound+1 of them.  The
    result is that of inserting the products of each BFS level one by
    one, item first, then generator, against everything stored before.

    Elements are bucketed by v = <w, vec(m)> for one fixed random complex
    w with |w|_1 = 1, on a grid of step max(100 tol, 1e-4).  Two matrices
    within 2*tol in max-norm differ by at most 2*tol in v.  So an element
    is stored under every cell that a point within 3*tol of its v (2*tol
    and room for rounding) falls in, in each part: at most 2 x 2 cells,
    usually one, as 6*tol is below the grid step.  A product looks up
    the one cell that holds its own v, and every element that decides a
    match or an ambiguity is among its candidates.

    A level is matched in chunks of about _CLOSURE_CHUNK products.  The
    elements are stored in one `kernel.RowIndex`, each as the row vec(m)
    followed by its v, and filed under the keys of their storage cells.
    A chunk of fewer than _THIN_CHUNK products is inserted one product at
    a time, through the index and a dict of the cells that it and the
    thin chunks since the last larger one stored, which holds each of
    their elements with its v; a candidate 3*tol or more away in v is
    skipped there, as it is at least that far away in max-norm.  Once the
    dict holds _THIN_CELLS cells, it is moved into the index, which
    bounds its memory.  A larger chunk first moves the dict into the
    index, and is matched with array operations.  First each of its
    products gets its nearest distance to the elements stored before the
    chunk; those below tol are matched.  The rest are then compared with
    the earlier products of the chunk that share a cell.  If no such
    distance, and no nearest distance of the rest, lies in [tol, 2*tol),
    "within tol" is an equivalence relation on the rest: a-b and b-c below
    tol put a-c below 2*tol, so a and c share a cell and a-c is below tol.
    The one-by-one result is then the first product of each class.
    Otherwise the chunk is decided one product at a time from the
    distances already computed, a product matching an earlier one only
    if that one was inserted; this raises AmbiguousMatch exactly where
    the one-by-one insertion would, and stops at the (bound+1)-th
    insertion, so that no ambiguity past it is raised.  Every distance is
    taken over the matrix entries.

    A product that is no longer finite raises OverflowError: a finite
    group has bounded entries.
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
    if bound < 1:
        raise ValueError("bound must be positive")
    dim = shape[0]
    gens = np.stack(mats)
    grid = max(tol * 100, 1e-4)
    # the standard library's generator: numpy.random would add about 6 MB
    # to the resident size of every process that closes a group
    rng = random.Random(0)
    w = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim * dim)])
    w /= np.abs(w).sum()
    reach = 3 * tol  # the storage reach
    store = RowIndex()  # vec(m), then v, of each element; filed under its storage cells
    recent = {}  # storage cell -> (element, v), for the latest thin chunks

    def storage_keys(v):
        """Keys of the cells within 3*tol of each v, with its position."""
        # [[re - 3 tol, re + 3 tol], [im - 3 tol, im + 3 tol]] as cells
        cells = (v.view(float).reshape(-1, 2, 1) + [-reach, reach]) / grid
        x, y = cells[:, 0], cells[:, 1]
        corners = _cell_keys(x[:, :, None], y[:, None, :])
        two_x, two_y = corners[:, 1, 0] != corners[:, 0, 0], corners[:, 0, 1] != corners[:, 0, 0]
        distinct = np.stack([np.ones_like(two_x), two_y, two_x, two_x & two_y], axis=1)
        return corners.reshape(-1, 4)[distinct], distinct.nonzero()[0]

    def is_new(near):
        """Whether a product whose nearest element is `near` away is new."""
        if near < tol:
            return False
        if near < 2 * tol:
            raise AmbiguousMatch(f"element at distance {near:.2e} is between tol and 2 tol")
        return True

    def fold():
        """Move the cells of `recent` into the index."""
        cells = np.array([k for k, js in recent.items() for _ in js], float)
        elements = np.array([j for js in recent.values() for j, _ in js], np.int64)
        store.index(_cell_keys(cells[:, 0], cells[:, 1]), elements)
        recent.clear()

    def thin(prods, v):
        """Insert a few products one at a time, as a dict-indexed closure
        does; their cells go into `recent`."""
        z = v.tolist()
        # a v that is not finite, or whose cell overflows, is left to wide
        if not all(abs(c) < 1e300 for c in z):
            return wide(prods, v)
        rows = np.concatenate([prods, v[:, None]], axis=1)
        for i, c in enumerate(z):
            look = (round(c.real / grid), round(c.imag / grid))
            near = np.inf
            # v moves no more than the matrix does, so an element 3*tol or
            # more away in v decides nothing, rounding included
            for j, u in recent.get(look, ()):
                if abs(u - c) < reach:
                    near = min(near, np.abs(store.row(j)[:-1] - prods[i]).max())
            if store.runs:
                for j in store.positions(_cell_key(*look)):
                    row = store.row(j)
                    if abs(row[-1] - c) < reach:
                        near = min(near, np.abs(row[:-1] - prods[i]).max())
            if not is_new(near):
                continue
            j = store.append(rows[i : i + 1])
            xs = {round((c.real - reach) / grid), round((c.real + reach) / grid)}
            ys = {round((c.imag - reach) / grid), round((c.imag + reach) / grid)}
            for x in xs:
                for y in ys:
                    recent.setdefault((x, y), []).append((j, c))
            if j >= bound:
                return
        if len(recent) >= _THIN_CELLS:
            fold()

    def one_by_one(best, pj, pk, pd):
        """Positions of the products to insert, deciding each in turn.

        `best` is each product's nearest distance to the elements stored
        before the chunk; product pk[i] may also match pj[i] < pk[i] at
        distance pd[i], once pj[i] is inserted."""
        earlier = {}
        for j, k, d in zip(pj.tolist(), pk.tolist(), pd.tolist()):
            earlier.setdefault(k, []).append((j, d))
        inserted = [False] * len(best)
        new = []
        for k, near in enumerate(best.tolist()):
            for j, d in earlier.get(k, ()):
                if inserted[j] and d < near:
                    near = d
            if not is_new(near):
                continue
            inserted[k] = True
            new.append(k)
            if len(store) + len(new) > bound:
                break
        return np.array(new, dtype=np.int64)

    def wide(prods, v):
        """Insert the new products of one chunk, with array operations."""
        if not np.isfinite(v).all():
            raise OverflowError(
                f"a product is no longer finite after {len(store)} elements: "
                "the group is not finite"
            )
        if recent:
            fold()
        look = _cell_keys(v.real / grid, v.imag / grid)
        # nearest element stored before the chunk
        qi, own = store.pairs(look)
        best = np.full(len(prods), np.inf)
        np.minimum.at(best, qi, np.abs(store.rows_at(own)[:, :-1] - prods[qi]).max(axis=1))
        rest = np.flatnonzero(best >= tol)
        if not len(rest):
            return
        best, prods, look = best[rest], prods[rest], look[rest]
        # earlier products of the chunk that share a cell
        rest_keys, rest_own = storage_keys(v[rest])
        cells = RowIndex()
        cells.index(rest_keys, rest_own)
        pk, pj = cells.pairs(look)
        later = pj < pk
        pj, pk = pj[later], pk[later]
        pd = np.abs(prods[pj] - prods[pk]).max(axis=1)
        if best.min() < 2 * tol or ((pd >= tol) & (pd < 2 * tol)).any():
            new = one_by_one(best, pj, pk, pd)
        else:
            # "within tol" is an equivalence: insert the first of each class
            lead = np.ones(len(rest), bool)
            lead[pk[pd < tol]] = False
            new = lead.nonzero()[0]
        first = store.append(np.concatenate([prods[new], v[rest[new], None]], axis=1))
        rank = np.full(len(rest), -1)
        rank[new] = np.arange(len(new))
        rank = rank[rest_own]
        store.index(rest_keys[rank >= 0], rank[rank >= 0] + first)

    per_chunk = max(1, _CLOSURE_CHUNK // len(gens))
    # a product that overflows is caught as not finite, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        first = np.eye(dim, dtype=complex).reshape(1, -1)
        thin(first, first @ w)
        start, end = 0, 1
        while start < end:
            for a in range(start, end, per_chunk):
                items = store.rows(a, min(a + per_chunk, end))[:, :-1]
                prods = _level_products(gens, items.reshape(-1, dim, dim))
                (thin if len(prods) < _THIN_CHUNK else wide)(prods, prods @ w)
                if len(store) > bound:
                    # views of the stored rows, not one copy of them all
                    found = []
                    for lo in range(0, bound + 1, per_chunk):
                        rows = store.rows(lo, min(lo + per_chunk, bound + 1))
                        found.extend(rows[:, :-1].reshape(-1, dim, dim))
                    raise BoundExceeded(bound, found)
            start, end = end, len(store)
    return len(store)
