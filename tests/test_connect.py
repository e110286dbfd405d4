import cmath
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from braidorbit.connect import (
    DOP853_A,
    DOP853_B,
    DOP853_C,
    DOP853_E3,
    DOP853_E5,
    AmbiguousMatch,
    ConnectionSpec,
    DegenerateParameters,
    IntegrationFailure,
    LauricellaParams,
    ThetaOneZero,
    completed_E_family,
    corollary_connection,
    exp_residue_reflection,
    flatness_check,
    g_matrix,
    lauricella_E,
    local_eigenvalues,
    monodromy_numeric,
    numeric_closure,
    residues_B,
    residues_C,
    wedge_vanishes,
)
from braidorbit.cyclo import cyc, zeta
from braidorbit.linalg import Mat, is_complex_reflection

ZERO, ONE = cyc(0), cyc(1)


def random_theta(rng, count, allow_zero_first=False):
    while True:
        th = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 7)) for _ in range(count)]
        if not allow_zero_first and th[0] == 0:
            continue
        return th


def test_residues_B_shape_and_facts():
    spec = ConnectionSpec((Fraction(1, 6),) * 4)
    fam = residues_B(spec)
    b12 = fam[(1, 2)]
    assert b12.trace() == cyc(Fraction(1, 3))
    assert b12[0, 0] == cyc(Fraction(1, 6))
    assert b12.rank() <= 1
    rng = random.Random(2)
    spec2 = ConnectionSpec(random_theta(rng, 4))
    for (i, j), m in residues_B(spec2).items():
        assert m.trace() == cyc(spec2.theta[i - 1] + spec2.theta[j - 1])
        assert m.rank() <= 1


def test_residues_C_facts():
    rng = random.Random(3)
    spec = ConnectionSpec(random_theta(rng, 4))
    fam = residues_C(spec)
    for (i, j), m in fam.items():
        assert m.trace() == cyc(spec.theta[i - 1] + spec.theta[j - 1])
        assert m.rank() <= 1
    with pytest.raises(ThetaOneZero):
        residues_C(ConnectionSpec((Fraction(0), Fraction(1, 2), Fraction(1, 3))))


def test_corollary_63_restriction_matches_C():
    # theta = (1/6,...): the three displayed 3x3 residues are the C^{1,j}
    spec = ConnectionSpec((Fraction(1, 6),) * 4)
    fam = residues_C(spec)
    third, sixth = cyc(Fraction(1, 3)), cyc(Fraction(1, 6))
    displayed = {
        (1, 2): Mat.from_rows(
            [[third, ZERO, ZERO], [sixth, ZERO, ZERO], [sixth, ZERO, ZERO]]
        ),
        (1, 3): Mat.from_rows(
            [[ZERO, sixth, ZERO], [ZERO, third, ZERO], [ZERO, sixth, ZERO]]
        ),
        (1, 4): Mat.from_rows(
            [[ZERO, ZERO, sixth], [ZERO, ZERO, sixth], [ZERO, ZERO, third]]
        ),
    }
    for key, want in displayed.items():
        assert fam[key] == want


def test_flatness_families():
    rng = random.Random(4)
    for n in (4, 5, 6, 7):
        spec = ConnectionSpec(random_theta(rng, n - 1))
        b = residues_B(spec)
        c = residues_C(spec)
        assert flatness_check(b)
        assert flatness_check(c)
        points = {}
        used = set()
        for i in range(1, n):
            while True:
                v = Fraction(rng.randrange(-20, 21), rng.randrange(1, 5))
                if v not in used:
                    used.add(v)
                    points[i] = v
                    break
        assert wedge_vanishes(b, points)
        assert wedge_vanishes(c, points)


def test_flatness_negative_control():
    spec = ConnectionSpec((Fraction(1, 6),) * 4)
    fam = residues_B(spec)
    broken = dict(fam)
    bad = fam[(1, 2)].to_rows()
    bad[0][1] = bad[0][1] + 1
    broken[(1, 2)] = Mat.from_rows(bad)
    assert not flatness_check(broken)


def test_completed_E_family_is_flat():
    rng = random.Random(5)
    for n in (5, 6):
        while True:
            spec = ConnectionSpec(random_theta(rng, n - 1))
            try:
                fam = completed_E_family(spec)
                break
            except DegenerateParameters:
                continue
        assert flatness_check(fam)


def test_lauricella_E_zero_betas():
    params = LauricellaParams(cyc(Fraction(-2, 3)), (ZERO, ZERO), cyc(Fraction(1, 2)))
    fam = lauricella_E(params)
    assert all(e.is_zero() for e in fam[(1, 2)].entries)


def test_g_matrix_conjugation_and_det():
    rng = random.Random(6)
    done = 0
    while done < 10:
        count = rng.choice([4, 5])  # N = 2 or 3
        spec = ConnectionSpec(random_theta(rng, count))
        try:
            g = g_matrix(spec)  # asserts conjugation + determinant inside
        except DegenerateParameters:
            continue
        n = spec.n
        big_n = n - 3
        alpha = -cyc(sum(spec.theta))
        expected = cyc(spec.theta[0]) * (alpha * cyc(spec.theta[big_n])) ** big_n
        if big_n % 2 == 1:
            expected = -expected
        assert g.det() == expected
        assert not g.det().is_zero()
        done += 1


def test_g_matrix_sixth_root_example():
    spec = ConnectionSpec((Fraction(1, 6),) * 4)
    g = g_matrix(spec)
    alpha = Fraction(-4, 6)
    # N = 2: det(G) = theta_1 (alpha theta_3)^2, positive sign
    assert g.det() == cyc(Fraction(1, 6) * (alpha * Fraction(1, 6)) ** 2)


def test_g_matrix_degenerate():
    # theta_(N+1) = 0 makes gamma - 1 - sum(beta) vanish
    with pytest.raises(DegenerateParameters):
        g_matrix(ConnectionSpec((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 3))))


def test_exp_residue_reflection():
    rng = random.Random(7)
    for _ in range(10):
        spec = ConnectionSpec(random_theta(rng, 4))
        lam = spec.lambdas()
        fam = residues_C(spec)
        for (i, j), c_mat in fam.items():
            t = spec.theta[i - 1] + spec.theta[j - 1]
            if t == 0:
                continue
            mat, mu = exp_residue_reflection(c_mat, t)
            assert mu == lam[i - 1] * lam[j - 1]
            if mu == ONE:
                assert mat == Mat.identity(c_mat.rows)
            else:
                ok, ev = is_complex_reflection(mat)
                assert ok and ev == mu


def test_exp_residue_matches_braid_eigenvalue():
    # the reflection eigenvalue of the braid matrix M_{i,j} is lambda_i
    # lambda_j, the same as the exponential of the quotient residue
    from braidorbit.charvar import LinearPart, action_matrix_reduced

    spec = ConnectionSpec((Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(5, 12)))
    lam = spec.lambdas()
    lam_full = lam + (
        (lam[0] * lam[1] * lam[2] * lam[3]).inverse(),
    )
    lp = LinearPart(lam_full)
    fam = residues_C(spec)
    for (i, j), c_mat in fam.items():
        t = spec.theta[i - 1] + spec.theta[j - 1]
        _, mu = exp_residue_reflection(c_mat, t)
        m = action_matrix_reduced(lp, i, j)
        ok, ev = is_complex_reflection(m)
        assert ok and ev == mu


def test_monodromy_single_pole_exact():
    a = np.diag([1 / 3, 0, 0]).astype(complex)
    mats = monodromy_numeric([0.0], [a], base=1.5 - 1.0j, local_tol=1e-12)
    expected = np.diag([cmath.exp(2j * cmath.pi / 3), 1, 1])
    assert np.max(np.abs(mats[0] - expected)) < 1e-9


def test_monodromy_residue_theorem_diagonal():
    a1 = np.diag([1 / 5, -1 / 7, 0]).astype(complex)
    a2 = np.diag([1 / 3, 2 / 7, -1 / 5]).astype(complex)
    mats = monodromy_numeric([0.0, 1.0], [a1, a2])
    product = mats[0] @ mats[1]
    total = np.diag(np.exp(2j * np.pi * np.diag(a1 + a2)))
    assert np.max(np.abs(product - total)) < 1e-8


def test_monodromy_pole_too_close():
    from braidorbit.connect import PoleTooClose

    a = np.zeros((2, 2), dtype=complex)
    with pytest.raises(PoleTooClose):
        monodromy_numeric([0.0, 1e-12], [a, a])


def test_corollary63_local_eigenvalues_and_closure():
    poles, mats = corollary_connection(3, [-0.7 + 0.3j], sign=+1)
    monos = monodromy_numeric(poles, mats, local_tol=1e-12)
    want = sorted(
        [cmath.exp(-2j * cmath.pi / 3), 1.0, 1.0], key=lambda z: (round(z.real, 9), round(z.imag, 9))
    )
    for m in monos:
        got = local_eigenvalues(m)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10
    assert numeric_closure(monos, tol=1e-6, bound=2000) == 648


def _dop853_monodromy(poles, residues):
    """Each loop piece solved on its own by scipy's DOP853, then composed.

    The loops are the ones `monodromy_numeric` documents: from the default
    base point straight toward the pole, around the circle of radius 0.4 *
    (distance to the nearest other pole or to the base), and back.
    """
    from scipy.integrate import solve_ivp

    poles = [complex(p) for p in poles]
    m = len(residues[0])
    re = [p.real for p in poles]
    im = [p.imag for p in poles]
    spread = max(max(re) - min(re), max(im) - min(im), 1.0)
    base = complex((max(re) + min(re)) / 2, min(im) - 1.5 * spread)

    def transport(x, dx):
        def rhs(s, y):
            a = sum(r / (x(s) - p) for p, r in zip(poles, residues))
            return (dx(s) * a @ y.reshape(m, m)).ravel()

        y0 = np.eye(m, dtype=complex).ravel()
        sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-14)
        assert sol.success
        return sol.y[:, -1].reshape(m, m)

    out = []
    for i, p in enumerate(poles):
        gap = min(abs(p - q) for j, q in enumerate(poles) if j != i)
        r = 0.4 * min(gap, abs(base - p))
        u = (base - p) / abs(base - p)
        entry = p + r * u
        t_in = transport(lambda s: base + s * (entry - base), lambda s: entry - base)
        circle = transport(
            lambda s: p + r * u * cmath.exp(2j * cmath.pi * s),
            lambda s: 2j * cmath.pi * r * u * cmath.exp(2j * cmath.pi * s),
        )
        t_out = transport(lambda s: entry + s * (base - entry), lambda s: base - entry)
        out.append(t_out @ circle @ t_in)
    return out


@pytest.mark.parametrize(
    "rank, s_points", [(3, [-0.7 + 0.3j]), (4, [-0.7 + 0.3j, 2.1 + 0.4j])], ids=["rank3", "rank4"]
)
def test_monodromy_numeric_matches_dop853(rank, s_points):
    poles, residues = corollary_connection(rank, s_points, sign=+1)
    got = monodromy_numeric(poles, residues, local_tol=1e-12)
    want = _dop853_monodromy(poles, residues)
    assert len(got) == len(want) == rank
    for g, w in zip(got, want):
        assert np.abs(g - w).max() < 1e-11


@pytest.mark.parametrize("local_tol", [1e-6, 1e-9, 1e-14])
def test_monodromy_numeric_local_tol_sweep(local_tol):
    poles, residues = corollary_connection(3, [-0.7 + 0.3j], sign=+1)
    got = monodromy_numeric(poles, residues, local_tol=local_tol)
    want = _dop853_monodromy(poles, residues)
    for g, w in zip(got, want, strict=True):
        assert np.abs(g - w).max() < max(100 * local_tol, 1e-11)


def test_dop853_tableau_matches_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref

    stages = ref.N_STAGES
    assert np.array_equal(DOP853_C, ref.C[:stages])
    assert np.array_equal(DOP853_A, ref.A[:stages, :stages])
    assert np.array_equal(DOP853_B, ref.B)
    # scipy's estimates carry a zero weight for the stage at the new point
    assert np.array_equal(DOP853_E3, ref.E3[:stages]) and ref.E3[stages] == 0
    assert np.array_equal(DOP853_E5, ref.E5[:stages]) and ref.E5[stages] == 0
    # the row-sum and weight conditions a typo in a literal would break
    assert np.allclose(DOP853_A.sum(axis=1), DOP853_C, rtol=0, atol=1e-13)
    assert abs(DOP853_B.sum() - 1) < 1e-14
    assert abs(DOP853_E3.sum()) < 1e-14 and abs(DOP853_E5.sum()) < 1e-14


def test_monodromy_non_finite_estimate_fails_at_once():
    # a NaN estimate must not pass for a failed test that shrinks the step
    a = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(IntegrationFailure, match="non-finite error estimate at s = 0"):
        monodromy_numeric([0.0], [a])


def test_monodromy_local_tol_below_rounding_fails_fast():
    poles, residues = corollary_connection(3, [-0.7 + 0.3j], sign=+1)
    began = time.perf_counter()
    with pytest.raises(IntegrationFailure, match="below the rounding error"):
        monodromy_numeric(poles, residues, local_tol=1e-18)
    assert time.perf_counter() - began < 0.1


def test_numeric_closure_basics():
    assert numeric_closure([np.eye(2, dtype=complex)]) == 1
    rot = np.array([[cmath.exp(2j * cmath.pi / 5)]], dtype=complex)
    assert numeric_closure([rot]) == 5


def test_numeric_closure_ambiguity():
    almost = np.array([[1.0 + 3e-7]], dtype=complex)
    with pytest.raises(AmbiguousMatch):
        numeric_closure([almost], tol=2e-7)


def _reference_closure(mats, tol):
    """Brute-force fuzzy closure: every product against every stored element."""
    stored = np.eye(len(mats[0]), dtype=complex)[None]
    frontier = list(stored)
    while frontier:
        new = []
        for m in frontier:
            for g in mats:
                prod = g @ m
                if np.abs(stored - prod).max(axis=(1, 2)).min() >= tol:
                    stored = np.concatenate([stored, prod[None]])
                    new.append(prod)
        frontier = new
    return len(stored)


def _rotation(n):
    c, s = np.cos(2 * np.pi / n), np.sin(2 * np.pi / n)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize(
    "name, size",
    [
        ("cyclic-7", 7),
        ("dihedral-10", 20),
        ("near-duplicates", 4000),
        ("rank3-monodromy", 648),
    ],
)
def test_numeric_closure_matches_reference(name, size):
    if name == "cyclic-7":
        mats = [_rotation(7)]
    elif name == "dihedral-10":
        mats = [_rotation(10), np.diag([1, -1])]
    elif name == "near-duplicates":
        # b^2 = 1 + 0.9 tol, so each diag(a^i, b^2) must merge with
        # diag(a^i, 1); the 2000 pairs sit at 2000 places in the bucket
        # grid, so some of them straddle a grid line
        b = -(1 + 0.45e-6)
        mats = [np.diag([cmath.exp(2j * cmath.pi / 2000), 1]), np.diag([1, b])]
    else:
        poles, residues = corollary_connection(3, [-0.7 + 0.3j], sign=+1)
        mats = monodromy_numeric(poles, residues, local_tol=1e-12)
    assert _reference_closure(mats, tol=1e-6) == size
    assert numeric_closure(mats, tol=1e-6) == size


def _square_off_by(delta):
    # g^2 = I + delta E_12: the square moves only an off-diagonal entry,
    # so its trace equals the identity's
    return np.array([[-1, -delta / 2], [0, -1]], dtype=complex)


def test_numeric_closure_off_trace_near_duplicate_is_ambiguous():
    with pytest.raises(AmbiguousMatch):
        numeric_closure([_square_off_by(1.5e-6)], tol=1e-6)


def test_numeric_closure_off_trace_near_duplicate_merges():
    assert numeric_closure([_square_off_by(0.5e-6)], tol=1e-6) == 2


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_numeric_closure_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        numeric_closure([np.eye(2, dtype=complex)], tol=tol)


@pytest.mark.parametrize(
    "mats",
    [
        [np.eye(2, dtype=complex), np.eye(3, dtype=complex)],
        [np.ones((2, 3), dtype=complex)],
        [np.ones(4, dtype=complex)],
    ],
    ids=["differing", "non-square", "not-a-matrix"],
)
def test_numeric_closure_rejects_bad_shapes(mats):
    with pytest.raises(ValueError, match="square"):
        numeric_closure(mats)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_numeric_closure_rejects_non_finite_entries(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        numeric_closure([m])


@pytest.mark.parametrize(
    "poles, base, message",
    [
        ([float("nan"), 0, 1], None, "poles must be finite"),
        ([complex(float("inf"), 0), 0, 1], None, "poles must be finite"),
        ([-0.7 + 0.3j, 0, 1], complex(0, float("nan")), "base point must be finite"),
    ],
)
def test_monodromy_numeric_rejects_non_finite_input(poles, base, message):
    # rejected before integrating, which would end in "step size underflow"
    residues = [np.zeros((2, 2), dtype=complex)] * len(poles)
    with pytest.raises(ValueError, match=message):
        monodromy_numeric(poles, residues, base=base)
