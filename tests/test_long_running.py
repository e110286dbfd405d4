"""The rank-4 monodromy corollary: the full 155520-element closure."""


def test_rank4_monodromy_closure_155520():
    from braidorbit.connect import corollary_connection, monodromy_numeric, numeric_closure

    poles, mats = corollary_connection(4, [-0.7 + 0.3j, 2.1 + 0.4j], sign=+1)
    monos = monodromy_numeric(poles, mats, local_tol=1e-12)
    size = numeric_closure(monos, tol=1e-6, bound=200_000)
    assert size == 155520
