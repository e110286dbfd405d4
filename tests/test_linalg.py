import random

import pytest

from braidorbit.charvar import LinearPart, reduced_generators
from braidorbit.cyclo import cyc, zeta
from braidorbit.linalg import (
    DimensionMismatch,
    Mat,
    SingularMatrix,
    eigenspace,
    is_complex_reflection,
    mat_parallel,
    matrix_order,
    projective_order,
)

W = zeta(3, 1)  # omega


def rand_mat(rng, n, conductor=12, density=0.8):
    entries = []
    for _ in range(n * n):
        if rng.random() < density:
            entries.append(cyc(rng.randrange(-3, 4)) + zeta(conductor, rng.randrange(conductor)))
        else:
            entries.append(cyc(0))
    return Mat(n, n, entries)


def test_rank_trivial():
    ident = Mat.identity(3)
    assert (ident - ident).rank() == 0
    assert ident.rank() == 3


def test_det_triangular_example():
    # det of [[l1*l2, 0], [l1*(l3-1), 1]] is l1*l2
    l1, l2, l3 = zeta(12, 1), zeta(12, 5), zeta(12, 3)
    m = Mat.from_rows([[l1 * l2, cyc(0)], [l1 * (l3 - 1), cyc(1)]])
    assert m.det() == l1 * l2


def test_trace_g25_generator():
    r1 = Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, W * W]])
    assert r1.trace() == 2 + W**2


def test_reflection_detection():
    assert is_complex_reflection(Mat.identity(3)) == (False, None)
    r1 = Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, W * W]])
    ok, ev = is_complex_reflection(r1)
    assert ok and ev == W**2
    l1, l2, l3 = zeta(12, 1), zeta(12, 5), zeta(12, 3)
    a3 = Mat.from_rows([[l1 * l2, 0], [l1 * (l3 - 1), 1]])
    ok, ev = is_complex_reflection(a3)
    assert ok and ev == l1 * l2


def test_eigenspace_order9_line():
    nu = zeta(9, 1)
    m = Mat.from_rows([[0, 1, 0], [0, 0, nu**3], [1, 0, 0]])
    basis = eigenspace(m, nu)
    assert len(basis) == 1
    assert mat_parallel(basis[0], (nu, nu**2, cyc(1)))
    assert eigenspace(Mat.identity(2), cyc(1)) == [[cyc(1), cyc(0)], [cyc(0), cyc(1)]]


def test_matrix_orders():
    r1 = Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, W * W]])
    assert matrix_order(r1, 10) == 3
    assert matrix_order(Mat.identity(4), 5) == 1
    assert matrix_order(Mat.from_rows([[2]]), 8) is None
    assert projective_order(Mat.from_rows([[W, 0], [0, 1]]), 10) == 3
    assert projective_order(Mat.identity(2).scale(W), 10) == 1


def test_inverse_random():
    rng = random.Random(11)
    done = 0
    while done < 8:
        m = rand_mat(rng, rng.randrange(2, 5))
        if m.det().is_zero():
            continue
        assert m.inverse() @ m == Mat.identity(m.rows)
        done += 1


@pytest.mark.parametrize("conductor", [1, 3, 12, 60])
def test_adjugate_times_matrix_is_the_determinant(conductor):
    rng = random.Random(conductor)
    for d in range(1, 6):
        mats = [rand_mat(rng, d, conductor) for _ in range(2)]
        if d > 1:
            # a singular M: its last row repeats its first
            rows = rand_mat(rng, d, conductor).to_rows()
            rows[-1] = list(rows[0])
            mats.append(Mat.from_rows(rows))
            assert mats[-1].det().is_zero()
        for m in mats:
            det = Mat.identity(d).scale(m.det())
            adj = m.adjugate()
            assert adj @ m == det and m @ adj == det
    assert Mat.from_rows([[1, 1], [1, 1]]).adjugate() == Mat.from_rows([[1, -1], [-1, 1]])


def test_reduced_generators_pair_each_matrix_with_its_inverse():
    families = [
        (zeta(60, 1), zeta(60, 29), zeta(60, 11), zeta(60, 19)),
        (zeta(6, 1),) * 4 + (zeta(6, 2),),
        (zeta(6, 1),) * 6,
    ]
    for lams in families:
        gens = reduced_generators(LinearPart(lams))
        assert gens and len(gens) % 2 == 0
        for m, n in zip(gens[::2], gens[1::2]):
            assert (m @ n).is_scalar() and (n @ m).is_scalar()


def test_singular_raises():
    m = Mat.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrix):
        m.inverse()
    with pytest.raises(DimensionMismatch):
        Mat.identity(2) @ Mat.identity(3)


def test_rank_nullity_random():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(2, 5)
        m = rand_mat(rng, n, density=0.5)
        ker = m.kernel()
        assert m.rank() + len(ker) == n
        for v in ker:
            assert all(e.is_zero() for e in m.apply(v))


def test_kernel_canonical():
    # same subspace, different presentations -> identical bases
    m1 = Mat.from_rows([[1, 1, 0]])
    m2 = Mat.from_rows([[2, 2, 0], [4, 4, 0]])
    assert m1.kernel() == m2.kernel()
