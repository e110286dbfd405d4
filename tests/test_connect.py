import cmath
import functools
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from braidorbit import connect
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
from braidorbit.kernel import BoundExceeded
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


_S_POINTS = {3: [-0.7 + 0.3j], 4: [-0.7 + 0.3j, 2.1 + 0.4j]}


@pytest.mark.parametrize("rank", [3, 4])
@pytest.mark.parametrize("cap", [1, 10**6])
def test_monodromy_batching_cannot_move_a_bit(monkeypatch, rank, cap):
    # every subinterval is stepped on its own data with sums in a fixed
    # order, so how many are stepped together changes nothing
    poles, residues = corollary_connection(rank, _S_POINTS[rank], sign=+1)
    want = monodromy_numeric(poles, residues)
    monkeypatch.setattr(connect, "_STEP_BATCH", cap)
    got = monodromy_numeric(poles, residues)
    assert np.array_equal(np.stack(got), np.stack(want))


@pytest.mark.parametrize("round_cap", [1, 7, 100])
def test_monodromy_round_cap_only_regroups_products(monkeypatch, round_cap):
    # a smaller round folds the same accepted transports in other groups
    poles, residues = corollary_connection(3, _S_POINTS[3], sign=+1)
    want = monodromy_numeric(poles, residues)
    monkeypatch.setattr(connect, "_ROUND", round_cap)
    got = monodromy_numeric(poles, residues)
    for g, w in zip(got, want, strict=True):
        assert np.abs(g - w).max() < 1e-13


def test_monodromy_overflowing_transport_raises():
    # each subinterval's transport is finite, but their product overflows:
    # it must raise, never return inf or nan
    poles, residues = corollary_connection(3, _S_POINTS[3], sign=+1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(IntegrationFailure, match="no longer finite at s = "):
            monodromy_numeric(poles, [1000 * a for a in residues])


def test_monodromy_memory_is_bounded():
    # ×300 residues need about 30000 subintervals; holding every accepted
    # transport until the end took a 10.8 MiB tracemalloc peak, and the
    # rounds of at most _ROUND subintervals fold them as they go
    poles, residues = corollary_connection(3, _S_POINTS[3], sign=+1)
    tracemalloc.start()
    try:
        got = monodromy_numeric(poles, [300 * a for a in residues])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(g).all() for g in got)
    assert peak < 4 * 2**20


def test_ordered_products_match_sequential_products():
    rng = random.Random(5)
    runs = np.array(sorted(rng.randrange(6) for _ in range(40)))
    mats = np.array(
        [[[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)] for _ in range(3)] for _ in runs]
    )
    got, values = connect._ordered_products(mats, runs)
    assert values.tolist() == sorted(set(runs.tolist()))
    for g, v in zip(got, values):
        want = np.eye(3)
        for m in mats[runs == v]:
            want = m @ want
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()


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


@functools.cache
def _rank3_monodromy():
    poles, residues = corollary_connection(3, [-0.7 + 0.3j], sign=+1)
    return monodromy_numeric(poles, residues, local_tol=1e-12)


def _closure_case(name):
    """Generators of a named closure test case, at tol = 1e-6."""
    root = cmath.exp(2j * cmath.pi / 5)
    if name == "cyclic-7":
        return [_rotation(7)]
    if name == "dihedral-10":
        return [_rotation(10), np.diag([1, -1])]
    if name == "near-duplicates":
        # b^2 = 1 + 0.9 tol, so each diag(a^i, b^2) must merge with
        # diag(a^i, 1); the 2000 pairs sit at 2000 places in the bucket
        # grid, so some of them straddle a grid line
        b = -(1 + 0.45e-6)
        return [np.diag([cmath.exp(2j * cmath.pi / 2000), 1]), np.diag([1, b])]
    if name == "storage-reach":
        # for 1 x 1 matrices v moves exactly as far as the matrix does, so
        # every product a^i (1 + 0.99 tol) near a grid line needs a^i stored
        # under the cell across that line
        return [np.array([[cmath.exp(2j * cmath.pi / 2000)]]), np.array([[1 + 0.99e-6]])]
    if name == "rank3-monodromy":
        return _rank3_monodromy()
    if name == "rank3-huge-entries":
        # entries up to 1e6 put v far past the 2**30 grid steps that cell
        # keys hold, so every v is clamped
        d = np.diag([1e6, 1, 1])
        return [d @ m @ np.linalg.inv(d) for m in _rank3_monodromy()]
    if name == "ambiguous-against-stored":
        return [np.array([[1 + 1.5e-6]])]
    if name == "ambiguous-within-a-chunk":
        # the first level's two products lie 1.5 tol apart, and far from I
        return [np.array([[root]]), np.array([[root * (1 + 1.5e-6)]])]
    if name == "merge-beside-a-near-miss":
        # the second product merges with the first; the third is 1.2 tol
        # from the second but 2.1 tol from the first, so only the one
        # product at a time rule decides it
        return [np.array([[root * (1 + f * 1e-6)]]) for f in (0, 0.9, 2.1)]
    raise ValueError(name)


@pytest.mark.parametrize(
    "name, size",
    [
        ("cyclic-7", 7),
        ("dihedral-10", 20),
        ("near-duplicates", 4000),
        ("storage-reach", 2000),
        ("rank3-monodromy", 648),
    ],
)
def test_numeric_closure_matches_reference(name, size):
    mats = _closure_case(name)
    assert _reference_closure(mats, tol=1e-6) == size
    assert numeric_closure(mats, tol=1e-6) == size


def _sequential_closure(mats, tol, bound):
    """The fuzzy closure one product at a time: each product of a level is
    looked up in its grid cell and inserted in turn.  numeric_closure must
    give exactly its result.  A level's products come from
    connect._level_products, as in the code under test, so that stored
    elements compare bit for bit."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    dim = mats[0].shape[0]
    gens = np.stack(mats)
    grid = max(tol * 100, 1e-4)
    rng = random.Random(0)
    w = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim * dim)])
    w /= np.abs(w).sum()

    stored = []
    buckets = {}
    reach = 3 * tol

    def cells(ms):
        v = (ms.reshape(len(ms), -1) * w).sum(axis=1)
        re = [round(x) for x in (v.real / grid).tolist()]
        im = [round(y) for y in (v.imag / grid).tolist()]
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
        stored.append(m.copy())
        return True

    frontier = np.eye(dim, dtype=complex)[None]
    insert(frontier[0], *next(cells(frontier)))
    while len(frontier):
        prods = connect._level_products(gens, frontier).reshape(-1, dim, dim)
        fresh = []
        for i, (cell, v) in enumerate(cells(prods)):
            if insert(prods[i], cell, v):
                if len(stored) > bound:
                    raise BoundExceeded(bound, stored)
                fresh.append(i)
        frontier = prods[fresh]
    return len(stored)


def _outcome(closure, mats, bound):
    """The size, or the exception and what it carries, exactly."""
    try:
        return ("size", closure(mats, tol=1e-6, bound=bound))
    except AmbiguousMatch as exc:
        return ("ambiguous", str(exc))
    except BoundExceeded as exc:
        return ("bound", exc.bound, len(exc.found), np.array(exc.found).tobytes())


@functools.cache
def _sequential_outcome(name, bound):
    return _outcome(_sequential_closure, _closure_case(name), bound)


# (chunk size, thin-chunk threshold): every chunk matched as a whole, in
# chunks of 5 or 64 products; wide and thin chunks mixed, as by default;
# every chunk inserted one product at a time
CHUNKINGS = {
    "wide-5": (5, 0),
    "wide-64": (64, 0),
    "mixed-64": (64, connect._THIN_CHUNK),
    "mixed": (connect._CLOSURE_CHUNK, connect._THIN_CHUNK),
    "thin": (connect._CLOSURE_CHUNK, 10**9),
}


SEQUENTIAL_CASES = [
    # with chunks of 5 products (one item) the cut at 100 comes after the
    # first of a chunk's three products, two of which are new
    ("rank3-monodromy", 1, "bound"),
    ("rank3-monodromy", 7, "bound"),
    ("rank3-monodromy", 100, "bound"),
    ("rank3-monodromy", 647, "bound"),
    ("rank3-monodromy", 2000, "size"),
    ("rank3-huge-entries", 2000, "size"),
    ("near-duplicates", 2500, "bound"),
    ("near-duplicates", 200_000, "size"),
    ("storage-reach", 200_000, "size"),
    ("ambiguous-against-stored", 100, "ambiguous"),
    ("ambiguous-within-a-chunk", 100, "ambiguous"),
    # the cut comes first: no ambiguity after it is raised
    ("ambiguous-within-a-chunk", 1, "bound"),
    # a cut beside a merge and a near miss in one chunk
    ("merge-beside-a-near-miss", 11, "bound"),
]
# a case run with every grid cell under one key, so that every stored
# element is a candidate of every product; only in small chunks, which
# keep the all-pairs candidates small
ONE_KEY = "-one-cell-key"
SEQUENTIAL_RUNS = [(*case, c) for case in SEQUENTIAL_CASES for c in CHUNKINGS] + [
    ("rank3-monodromy" + ONE_KEY, 100, "bound", c) for c in ("wide-5", "wide-64", "mixed-64")
]


@pytest.mark.parametrize(
    "name, bound, kind, chunking",
    SEQUENTIAL_RUNS,
    ids=["-".join(map(str, run)) for run in SEQUENTIAL_RUNS],
)
def test_numeric_closure_matches_sequential_insertion(monkeypatch, name, bound, kind, chunking):
    # the same size, or the same exception with the same elements in the
    # same order, as inserting one product at a time
    chunk, thin = CHUNKINGS[chunking]
    monkeypatch.setattr(connect, "_CLOSURE_CHUNK", chunk)
    monkeypatch.setattr(connect, "_THIN_CHUNK", thin)
    if name.endswith(ONE_KEY):
        name = name.removesuffix(ONE_KEY)
        shape = np.broadcast_shapes
        monkeypatch.setattr(
            connect, "_cell_keys", lambda x, y: np.zeros(shape(x.shape, y.shape), np.int64)
        )
        monkeypatch.setattr(connect, "_cell_key", lambda x, y: 0)
    want = _sequential_outcome(name, bound)
    assert want[0] == kind
    assert _outcome(numeric_closure, _closure_case(name), bound) == want


def test_cell_keys_give_each_cell_one_key():
    # -0.3 and 0.2 both round to cell 0, -0.3 to the bit pattern of -0.0
    same = connect._cell_keys(np.array([-0.3, 0.2, 0.5, -0.5]), np.array([0.2, -0.4, 0.0, -0.0]))
    assert len(set(same.tolist())) == 1
    # cells far past 2**63 grid steps stay apart
    far = np.array([1e25, 1e25 + 2**40, -1e25, 1e300, 1.0, 2.0])
    assert len(set(connect._cell_keys(far, np.zeros(6)).tolist())) == 6
    assert len(set(connect._cell_keys(np.zeros(6), far).tolist())) == 6



def test_cell_key_of_one_cell_matches_cell_keys():
    xs = [0.0, -0.0, 0.2, -0.3, 2.5, -2.5, 1e25, -1e25, 1e300, 12345.5, -(2.0**40)]
    for x in xs:
        for y in xs:
            want = connect._cell_keys(np.array([x]), np.array([y]))[0]
            assert connect._cell_key(round(x), round(y)) == want
    # the rounded coordinates that the one-at-a-time path passes, cells
    # past the float range included; -0.3 rounds to -0.0
    inf = float("inf")
    xs += [inf, -inf, 0.5, 1.5, -1.5, 2.0**52 + 1, -(2.0**53) - 2]
    for x in xs:
        for y in xs:
            want = connect._cell_keys(np.array([x]), np.array([y]))[0]
            assert connect._cell_key(connect._rint(x), connect._rint(y)) == want
            assert connect._cell_key(round(x, 0) + 0.0, round(y, 0) + 0.0) == want


@pytest.mark.parametrize(
    "name, bound, kind",
    [
        ("near-duplicates", 2500, "bound"),
        ("storage-reach", 200_000, "size"),
        ("rank3-monodromy", 647, "bound"),
        ("ambiguous-against-stored", 100, "ambiguous"),
        ("merge-beside-a-near-miss", 11, "bound"),
    ],
)
def test_thin_cells_moved_into_runs_match_sequential_insertion(monkeypatch, name, bound, kind):
    # every chunk one product at a time, its cells moved into the one run
    # every few cells: the same outcome as inserting one product at a time
    monkeypatch.setattr(connect, "_THIN_CHUNK", 10**9)
    monkeypatch.setattr(connect, "_THIN_CELLS", 5)
    want = _sequential_outcome(name, bound)
    assert want[0] == kind
    assert _outcome(numeric_closure, _closure_case(name), bound) == want


@pytest.mark.parametrize("thin", [connect._THIN_CHUNK, 0], ids=["mixed", "wide"])
def test_near_miss_beside_a_cell_past_the_float_range_is_ambiguous(monkeypatch, thin):
    # the first level's v of diag(1e306, 1) lies past the float range in
    # grid steps, and diag(1, 1 + 1.5e-6) is 1.5 tol from I; whichever
    # path takes the chunk, the near miss is raised, with no hand-back
    # between the paths; the sequential reference cannot round that cell
    monkeypatch.setattr(connect, "_THIN_CHUNK", thin)
    mats = [np.diag([1e306, 1]), np.diag([1, 1 + 1.5e-6])]
    with pytest.raises(AmbiguousMatch):
        numeric_closure(mats, tol=1e-6, bound=100)


def test_one_generator_closure_memory_is_bounded():
    # every BFS level holds one product, so every chunk is thin; the cells
    # of 20000 elements in a dict took a 7.7 MiB tracemalloc peak, and the
    # dict is now moved into a sorted run every _THIN_CELLS cells
    mats = [np.diag([cmath.exp(2j * cmath.pi / 20000)])]
    tracemalloc.start()
    try:
        size = numeric_closure(mats, tol=1e-6, bound=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 20000
    assert peak < 5 * 2**20
    # cut past three moves into the run
    want = _outcome(_sequential_closure, mats, 12_000)
    assert want[:3] == ("bound", 12_000, 12_001)
    assert _outcome(numeric_closure, mats, 12_000) == want

def test_level_products_are_item_first():
    rng = random.Random(3)
    gens, items = (
        np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(9)] for _ in range(k)])
        .reshape(k, 3, 3)
        for k in (2, 4)
    )
    want = np.array([g @ m for m in items for g in gens]).reshape(-1, 9)
    assert np.allclose(connect._level_products(gens, items), want, rtol=0, atol=1e-14)


def _square_off_by(delta):
    # g^2 = I + delta E_12: the square moves only an off-diagonal entry,
    # so its trace equals the identity's
    return np.array([[-1, -delta / 2], [0, -1]], dtype=complex)


def test_numeric_closure_off_trace_near_duplicate_is_ambiguous():
    with pytest.raises(AmbiguousMatch):
        numeric_closure([_square_off_by(1.5e-6)], tol=1e-6)


def test_numeric_closure_off_trace_near_duplicate_merges():
    assert numeric_closure([_square_off_by(0.5e-6)], tol=1e-6) == 2


@pytest.mark.parametrize("bound", [0, -1, -5])
def test_numeric_closure_rejects_bound_below_one(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        numeric_closure([np.eye(2, dtype=complex)], bound=bound)


def test_numeric_closure_of_an_infinite_group_fails_when_products_overflow():
    # the powers of diag(2, 1) overflow at 2**1024; no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="no longer finite after 1024 elements"):
            numeric_closure([np.diag([2, 1])], bound=3000)


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


def _product_of_cycles(*orders):
    """Generators of a product of cyclic groups, one diagonal matrix each."""
    return [
        np.diag([cmath.exp(2j * cmath.pi / n) if i == k else 1 for i in range(len(orders))])
        for k, n in enumerate(orders)
    ]


@pytest.mark.parametrize(
    "mats, bound",
    [
        # one generator: every BFS level holds one product
        (_product_of_cycles(5000), 200_000),
        # two: levels of up to 80 products, matched as whole chunks while
        # the index grows to 4000 elements
        (_product_of_cycles(40, 100), 200_000),
        # an infinite group whose v grows past 2**63 grid steps: its cells
        # must stay apart, or every product meets every element
        ([np.array([[1.03]])], 2000),
    ],
    ids=["one-generator", "two-generators", "growing"],
)
def test_numeric_closure_costs_no_more_than_sequential_insertion(mats, bound):
    # a narrow level matched as a whole chunk pays a fixed set of array
    # calls, re-sorting the whole index per chunk grows with the square of
    # the size, and so does a shared cell: each makes this several times
    # the one-by-one cost
    want = _outcome(_sequential_closure, mats, bound)

    def best_time(closure):
        times = []
        for _ in range(3):
            began = time.perf_counter()
            assert _outcome(closure, mats, bound) == want
            times.append(time.perf_counter() - began)
        return min(times)

    assert best_time(numeric_closure) < 2 * best_time(_sequential_closure)
