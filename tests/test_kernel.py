import cmath
import importlib.util
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from braidorbit import charvar, connect, kernel, reflgrp
from braidorbit.charvar import (
    AffineRep,
    LinearPart,
    ProjClass,
    action_matrix_reduced,
    normalize,
    orbit,
    reduced_generators,
)
from braidorbit.classify import NotFiniteCase, _projective_closure, table_rows
from braidorbit.cyclo import _mul_mod, cyc, euler_phi, zeta
from braidorbit.linalg import Mat, eigenspace


def test_closure_is_closed_under_linalg_products():
    # monomial matrices with root-of-unity entries generate a finite group;
    # conjugating them by a random matrix gives dense entries with denominators
    rng = random.Random(3)
    for conductor in (3, 6):
        for _ in range(5):
            d = rng.randrange(1, 3)
            while True:
                p = Mat.from_rows(
                    [[cyc(rng.randrange(-2, 3)) + zeta(conductor, rng.randrange(conductor))
                      for _ in range(d)] for _ in range(d)]
                )
                if not p.det().is_zero():
                    break
            gens = []
            for _ in range(rng.randrange(1, 3)):
                perm = rng.sample(range(d), d)
                mono = Mat.from_rows(
                    [[zeta(conductor, rng.randrange(conductor)) if perm[i] == j else 0
                      for j in range(d)] for i in range(d)]
                )
                gens.append(p @ mono @ p.inverse())
            blobs = [kernel.to_blob_matrix(g, conductor) for g in gens]
            found = kernel.closure(blobs, d, conductor, 200)
            members = set(found)
            assert len(members) == len(found)
            assert members >= set(blobs)
            els = [kernel.from_blob_matrix(b, d, conductor) for b in found]
            assert els[0] == Mat.identity(d)
            for x in els:
                for y in els:
                    assert kernel.to_blob_matrix(x @ y, conductor) in members


def test_blob_roundtrip():
    m = Mat.from_rows([[zeta(3, 1), 1], [cyc(0), zeta(3, 2) / 3]])
    blob = kernel.to_blob_matrix(m, 3)
    assert kernel.from_blob_matrix(blob, 2, 3) == m
    v = (zeta(12, 5), cyc(2), zeta(12, 1) / 2)
    blob_v = kernel.to_blob_vector(v, 12)
    assert kernel.from_blob_vector(blob_v, 12) == tuple(cyc(x) for x in v)


# the ids keep the test names the suite has always reported
@pytest.mark.parametrize("impl", [kernel], ids=lambda m: m.BACKEND)
def test_closure_small_group(impl):
    # <zeta6 rotation> in GL_1 has order 6
    g = kernel.to_blob_matrix(Mat.from_rows([[zeta(6, 1)]]), 6)
    els = impl.closure([g], 1, 6, 10)
    assert len(els) == 6
    with pytest.raises(impl.BoundExceeded):
        impl.closure([g], 1, 6, 5)


@pytest.mark.parametrize("impl", [kernel], ids=lambda m: m.BACKEND)
def test_g25_closure_per_backend(impl):
    from braidorbit.reflgrp import g25_generators

    phi, red = kernel.ring_params(3)
    gens = [kernel.to_blob_matrix(g, 3) for g in g25_generators()]
    els = impl.closure(gens, 3, 3, 1000)
    assert len(els) == 648
    refl = impl.reflection_indices(els, 3, phi, red)
    assert len(refl) == 24


@pytest.mark.parametrize("impl", [kernel], ids=lambda m: m.BACKEND)
def test_stab_counts(impl):
    from braidorbit.reflgrp import g25_generators

    phi, red = kernel.ring_params(3)
    gens = [kernel.to_blob_matrix(g, 3) for g in g25_generators()]
    els = impl.closure(gens, 3, 3, 1000)
    v = kernel.to_blob_vector((cyc(1), cyc(-1), cyc(0)), 3)
    assert impl.stab_count_line(els, v, 3, phi, red) == 72  # orbit 9


@pytest.mark.parametrize("impl", [kernel], ids=lambda m: m.BACKEND)
def test_line_orbit_hyperplanes(impl):
    from braidorbit.reflgrp import g25_generators

    phi, red = kernel.ring_params(3)
    gens = []
    for g in g25_generators():
        gens.append(kernel.to_blob_matrix(g.inverse().transpose(), 3))
    v = kernel.to_blob_vector((cyc(0), cyc(0), cyc(1)), 3)
    orbit = impl.line_orbit(gens, v, 3, phi, red, 50)
    assert len(orbit) == 12  # one transitive orbit of reflection planes


def test_overflow_guard():
    # big is diag(2^62, 2^62 w): its square's entries do not fit int64
    big = kernel.pack_values(1, [1 << 62, 0, 0, 0, 0, 0, 0, 1 << 62])
    with pytest.raises(OverflowError, match=str(1 << 124)):
        kernel.closure([big], 2, 3, 10)


# ---- one bound meaning ----------------------------------------------------------
#
# Every search succeeds at bound = size and, at bound = size - 1, reports
# that it passed the bound together with the size = bound + 1 items it
# found by then.  Each case maps a bound to (items found, exceeded).


def _raising(search):
    """A case for a search that returns its items and raises past its bound."""

    def case(bound):
        try:
            return len(search(bound)), False
        except kernel.BoundExceeded as exc:
            return len(exc.found), True
        except NotFiniteCase as exc:
            return len(exc.__cause__.found), True

    return case


def _closure(bound):
    g = kernel.to_blob_matrix(Mat.from_rows([[zeta(6, 1)]]), 6)
    return kernel.closure([g], 1, 6, bound)


def _g25_line_orbit(bound):
    phi, red = kernel.ring_params(3)
    gens = [kernel.to_blob_matrix(g.inverse().transpose(), 3) for g in reflgrp.g25_generators()]
    v = kernel.to_blob_vector((cyc(0), cyc(0), cyc(1)), 3)
    return kernel.line_orbit(gens, v, 3, phi, red, bound)


def _charvar_orbit(bound):
    # the README example: tetrahedral family, size-4 row
    lp = LinearPart((zeta(12, 1), zeta(12, 5), zeta(12, 3), zeta(12, 3)))
    res = orbit(ProjClass(4, (cyc(1), cyc(0))), lp, bound=bound)
    return res.size, res.exceeded_bound


def _projective(bound):
    return _projective_closure([Mat.from_rows([[1, 0], [0, zeta(6, 1)]])], bound)


def _g25_plane_orbit(bound):
    # the order-6 regular eigenplanes of G25, one orbit of 9
    w = zeta(3, 1)
    seed = Mat.from_rows([[0, -1, 0], [-w, 0, 0], [0, 0, -(w * w)]])
    basis = eigenspace(seed, -(w * w))
    return reflgrp._plane_orbit_py(reflgrp.g25_generators(), basis, 3, bound)


def _numeric(bound):
    rot = np.array([[cmath.exp(2j * cmath.pi / 5)]], dtype=complex)
    try:
        return connect.numeric_closure([rot], bound=bound), False
    except kernel.BoundExceeded as exc:
        return len(exc.found), True


@pytest.mark.parametrize(
    "case, size",
    [
        (_raising(_closure), 6),
        (_raising(_g25_line_orbit), 12),
        (_charvar_orbit, 4),
        (_raising(_projective), 6),
        (_raising(_g25_plane_orbit), 9),
        (_numeric, 5),
    ],
    ids=["closure", "line_orbit", "charvar.orbit", "projective_closure", "plane_orbit", "numeric_closure"],
)
def test_bound_meaning(case, size):
    assert case(size) == (size, False)
    assert case(size - 1) == (size, True)


def test_line_vector_is_the_identity_of_a_line():
    w = zeta(3, 1)
    one, two = cyc(1), cyc(2)
    # the same value at conductors 6 and 3, and promoted or not
    assert kernel.line_vector((one, zeta(6, 2)), 6) == kernel.line_vector((one, w), 6)
    x = zeta(4, 1) + Fraction(1, 3)
    assert kernel.line_vector((x, one), 12) == kernel.line_vector((x.promote(12), one), 12)
    # v and lambda v span one line, and its coordinates start with 1
    v = (w, two, cyc(0))
    lam = 1 + zeta(4, 1)
    key = kernel.line_vector(v, 12)
    assert key == kernel.line_vector(tuple(lam * e for e in v), 12)
    assert key != kernel.line_vector((w, cyc(3), cyc(0)), 12)
    assert kernel.line_coords(key, 12) == (cyc(1), two / w, cyc(0))
    # symmetry_check keys the vector itself, so v and -v differ
    minus_v = tuple(-e for e in v)
    assert reflgrp._vector_key(v, 12) != reflgrp._vector_key(minus_v, 12)
    assert reflgrp._vector_key(v, 12) == reflgrp._vector_key(tuple(e.promote(12) for e in v), 12)
    minus = Mat.identity(3).scale(-1)
    assert not reflgrp.symmetry_check([minus], [v])
    assert reflgrp.symmetry_check([minus], [v, minus_v])


def test_one_bound_exceeded_class():
    assert reflgrp.BoundExceeded is connect.BoundExceeded is kernel.BoundExceeded


# ---- the batched integer search against its per-item step --------------------
#
# `int_bfs` batches a level only if its frontier has at least `_BATCH_MIN`
# vectors; setting that constant to 1 batches every level and setting it
# past any level size runs the per-item Python-int step everywhere.  Both
# must give the same vectors in the same order.


def _batched_and_per_item(monkeypatch, search):
    monkeypatch.setattr(kernel, "_BATCH_MIN", 1)
    batched = search()
    monkeypatch.setattr(kernel, "_BATCH_MIN", 1 << 62)
    per_item = search()
    return batched, per_item


def _n6_class():
    # the n6-orbit benchmark's class: z6 x 6, tau (0, 2, 1, 1, 0)
    z6 = zeta(6, 1)
    rep = AffineRep(LinearPart((z6,) * 6), tuple(cyc(t) for t in (0, 2, 1, 1, 0)))
    cls, _ = normalize(rep)
    return cls, rep.linear


def _line_orbit_case(name):
    if name == "n6-2880":
        cls, lp = _n6_class()
        return reduced_generators(lp), cls.coords, 6, 2880
    if name == "table3-conductor-60":
        lp = LinearPart((zeta(60, 1), zeta(60, 29), zeta(60, 11), zeta(60, 19)))
        return reduced_generators(lp), (cyc(1), cyc(2)), 60, 60
    assert name == "g32-conductor-30"
    v30 = reflgrp.g32_order30_representative()[0]
    return reflgrp.g32_generators(), v30, 3, 5184


@pytest.mark.parametrize("name", ["n6-2880", "table3-conductor-60", "g32-conductor-30"])
def test_int_line_orbit_batched_matches_per_item(monkeypatch, name):
    gens, coords, conductor, size = _line_orbit_case(name)
    batched, per_item = _batched_and_per_item(
        monkeypatch, lambda: kernel.int_line_orbit(gens, coords, 200_000, conductor)
    )
    assert len(batched[2]) == size
    assert batched == per_item


def _regular_orbit(gens, base, bound):
    """The orbit of the vector `base`, searched on the lines through (1, v):
    the search of each level of `reflgrp.StabilizerChain`.  A vector on no
    reflection hyperplane has a trivial stabilizer, so its orbit is as
    large as the group."""
    one = Mat.identity(1)
    lifts = [kernel.kron_lift(g, one, affine=True) for g in gens]
    return kernel.int_line_orbit(lifts, (cyc(1), *map(cyc, base)), bound, 3)


def test_regular_orbit_batched_matches_per_item(monkeypatch):
    batched, per_item = _batched_and_per_item(
        monkeypatch, lambda: _regular_orbit(reflgrp.g25_generators(), (1, 2, 3), 1000)
    )
    assert len(batched[2]) == 648 and batched[3] is False
    assert batched == per_item


def test_bound_inside_a_level_batched_matches_per_item(monkeypatch):
    # the levels of the n=6 orbit hold 1, 18, 170, 918, ... vectors, so the
    # 1001st vector comes in the middle of a batched level
    cls, lp = _n6_class()
    gens = reduced_generators(lp)
    batched, per_item = _batched_and_per_item(
        monkeypatch, lambda: kernel.int_line_orbit(gens, cls.coords, 1000, 6)
    )
    assert batched[3] is True and len(batched[2]) == 1001
    assert batched == per_item


@pytest.mark.parametrize("exponent, refused_by", [(61, "product"), (57, "pivot")])
def test_int64_guard_falls_back_to_the_python_step(monkeypatch, exponent, refused_by):
    # near 2^61 the product guard refuses the first level; near 2^57 the
    # product fits, but multiplying by a pivot's inverse would not
    refusals = []
    for method in ("distinct_images", "canon"):
        original = getattr(kernel._Batch, method)

        def spy(self, *args, _original=original, _method=method):
            out = _original(self, *args)
            if out is None:
                refusals.append(_method)
            return out

        monkeypatch.setattr(kernel._Batch, method, spy)
    point = (cyc(1), cyc((1 << exponent) + 1), cyc(3))
    gens = reflgrp.g25_generators()
    batched, per_item = _batched_and_per_item(
        monkeypatch, lambda: kernel.int_line_orbit(gens, point, 1000, 3)
    )
    assert len(batched[2]) == 216
    assert batched == per_item
    assert ("canon" in refusals) == (refused_by == "pivot")
    assert "distinct_images" in refusals
    # the orbit's coordinates outgrow int64: only the Python step holds them
    assert max(abs(x) for v in batched[2] for x in v) >= 1 << 63


@pytest.mark.parametrize(
    "base, dens", [((1, 2, 3), {1}), ((1, 2, 5), {1, 3})], ids=["1-2-3", "1-2-5"]
)
def test_regular_orbit_matches_a_search_over_cyclotomic_vectors(monkeypatch, base, dens):
    # (1, 2, 5) leaves the integer lattice: some of its points have the
    # denominator 3.  The reference shares no integer code with the search:
    # `bfs` over tuples of Cyclotomic under Mat.apply
    gens = reflgrp.g25_generators()
    batched, per_item = _batched_and_per_item(
        monkeypatch, lambda: _regular_orbit(gens, base, 1000)
    )
    assert batched == per_item
    conductor, _, points, _ = batched
    want = kernel.bfs(tuple(map(cyc, base)), lambda v: (g.apply(v) for g in gens), 1000)
    assert len(want) == 648
    assert [kernel.line_coords(w, conductor)[1:] for w in points] == want
    assert {w[0] for w in points} == dens


def test_hash_collisions_regroup_exactly(monkeypatch):
    # with every row hashed to 0, `_group_rows` must fall back to exact tuples
    monkeypatch.setattr(kernel, "_hash_weights", lambda width: np.zeros(width, dtype=np.uint64))
    cls, lp = _n6_class()
    gens = reduced_generators(lp)
    batched, per_item = _batched_and_per_item(
        monkeypatch, lambda: kernel.int_line_orbit(gens, cls.coords, 6000, 6)
    )
    assert len(batched[2]) == 2880
    assert batched == per_item


def test_action_too_large_for_int64_runs_per_item(monkeypatch):
    # the scalar 2^70 I fixes every line, but cannot be stacked into an
    # int64 matrix: every level, though batched by size, runs per item
    monkeypatch.setattr(kernel, "_BATCH_MIN", 1)
    refused = []
    distinct_images = kernel._Batch.distinct_images

    def spy(self, *args):
        out = distinct_images(self, *args)
        refused.append(out is None)
        return out

    monkeypatch.setattr(kernel._Batch, "distinct_images", spy)
    huge = 1 << 70
    scalar, swap = [((0, huge),), ((1, huge),)], [((1, 1),), ((0, 1),)]
    assert kernel.int_bfs((1, 2), [scalar, swap], 10, (1, 1)) == [(1, 2), (2, 1)]
    assert refused == [True, True]


# ---- the pivot-inverse memo ------------------------------------------------------
#
# `_pivot_inverse` keeps each pivot's inverse for the whole process, so a
# search may start with the memo cold or warm from an earlier search.
# Both must give the same vectors in the same order.


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _n4_families():
    module = _perfbench_workloads()
    return [
        (name, LinearPart(tuple(module._lambda(*x) for x in lams)))
        for name, lams, _, _ in module.N4_FAMILIES
    ]


def _recorded_searches(monkeypatch, search):
    """Every int_bfs outcome of `search`, run with the memo cold, then warm.

    The warm run must compute no inverse the cold run did not.
    """
    outcomes = []
    int_bfs = kernel.int_bfs

    def recording_bfs(*args, **kwargs):
        try:
            found = int_bfs(*args, **kwargs)
        except kernel.BoundExceeded as exc:
            outcomes.append(("exceeded", exc.found))
            raise
        outcomes.append(("found", found))
        return found

    monkeypatch.setattr(kernel, "int_bfs", recording_bfs)
    kernel._pivot_inverse.cache_clear()
    search()
    cold = list(outcomes)
    outcomes.clear()
    misses = kernel._pivot_inverse.cache_info().misses
    search()
    assert kernel._pivot_inverse.cache_info().misses == misses
    return cold, outcomes


def _table_orbits(lp, bound):
    # every row of the family's table, and tau = (0, 1, c) as the generic search tries it
    reps = [row.rep for row in table_rows(lp).rows]
    reps += [AffineRep(lp, (cyc(0), cyc(1), cyc(c))) for c in range(2, 6)]
    for rep in reps:
        cls, rot = normalize(rep)
        orbit(cls, lp.rotated(rot) if rot else lp, bound=bound)


@pytest.mark.parametrize("lp", [pytest.param(lp, id=name) for name, lp in _n4_families()])
def test_pivot_memo_keeps_the_table_orbits(monkeypatch, lp):
    cold, warm = _recorded_searches(monkeypatch, lambda: _table_orbits(lp, 200))
    assert cold == warm
    assert len(cold) >= 5


def _g25_order9_orbit(bound):
    nu = zeta(9, 1)
    return kernel.int_line_orbit(reflgrp.g25_generators(), (nu, nu * nu, cyc(1)), bound, 3)


@pytest.mark.parametrize("bound", [1000, 40])
def test_pivot_memo_keeps_a_g25_stratum_and_its_truncation(monkeypatch, bound):
    # the order-9 line of Table 4: 72 points at conductor 9 (phi 6)
    cold, warm = _recorded_searches(monkeypatch, lambda: _g25_order9_orbit(bound))
    assert cold == warm
    ((outcome, found),) = cold
    if bound == 1000:
        assert (outcome, len(found)) == ("found", 72)
    else:
        assert (outcome, len(found)) == ("exceeded", 41)


def test_pivot_memo_keeps_a_truncated_table3_orbit(monkeypatch):
    lp = LinearPart((zeta(60, 1), zeta(60, 29), zeta(60, 11), zeta(60, 19)))
    cold, warm = _recorded_searches(monkeypatch, lambda: _table_orbits(lp, 7))
    assert cold == warm
    assert any(outcome == "exceeded" and len(found) == 8 for outcome, found in cold)


@pytest.mark.parametrize("conductor", [5, 7, 9, 12, 15, 20, 24, 30, 60])
def test_pivot_inverse_is_a_memo_of_the_exact_inverse(conductor):
    rng = random.Random(conductor)
    phi = euler_phi(conductor)
    for _ in range(10):
        key = [0]
        while not any(key[1:]):  # a pivot that is not an integer
            key = [rng.randrange(-9, 10) for _ in range(phi)]
        g = math.gcd(*key)
        key = tuple(x // g for x in key)
        s, c = kernel._pivot_inverse(conductor, key)
        assert isinstance(s, tuple) and isinstance(c, int) and c != 0
        assert _mul_mod(conductor, key, s) == [c] + [0] * (phi - 1)
        assert (list(s), c) == kernel._int_inverse(conductor, key)
        before = kernel._pivot_inverse.cache_info()
        assert kernel._pivot_inverse(conductor, key) == (s, c)
        after = kernel._pivot_inverse.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# ---- the inverse pairing ----------------------------------------------------------
#
# Given `inverse`, `int_bfs` skips the image of v under an action whose
# inverse already took some w to v: the per-item step does not compute
# it, and a batched chunk drops its row before canonicalizing.  Every
# search below is run again without `inverse`: the vectors, their order
# and the truncation point must be the same, and the paired run must
# skip work.


def _searches_with_and_without_inverse(monkeypatch, search):
    """Every paired int_bfs call of `search`, as (paired, unpaired) outcomes.

    Each outcome is ("found" or "exceeded", vectors, `_canon` calls, rows
    canonicalized by `_Batch.canon`).
    """
    int_bfs, canon, batch_canon = kernel.int_bfs, kernel._canon, kernel._Batch.canon
    calls = [[0, 0]]  # the last entry counts for the running search

    def counting_canon(*args):
        calls[-1][0] += 1
        return canon(*args)

    def counting_batch_canon(self, w):
        calls[-1][1] += len(w)
        return batch_canon(self, w)

    def outcome(*args, **kwargs):
        calls.append([0, 0])
        try:
            return "found", int_bfs(*args, **kwargs), *calls[-1]
        except kernel.BoundExceeded as exc:
            return "exceeded", exc.found, *calls[-1]

    pairs = []

    def both(*args, inverse=None, **kwargs):
        assert inverse is not None
        pairs.append((outcome(*args, inverse=inverse, **kwargs), outcome(*args, **kwargs)))
        kind, found, *_ = pairs[-1][1]
        if kind == "exceeded":
            raise kernel.BoundExceeded(args[2], found)
        return found

    monkeypatch.setattr(kernel, "_canon", counting_canon)
    monkeypatch.setattr(kernel._Batch, "canon", counting_batch_canon)
    monkeypatch.setattr(kernel, "int_bfs", both)
    search()
    assert pairs
    return pairs


def _assert_same_with_fewer_images(pairs, per_item=True, batched=False):
    """The same outcome, with fewer per-item or batched canonicalizations."""
    for (kind, found, calls, rows), (kind0, found0, calls0, rows0) in pairs:
        assert (kind, found) == (kind0, found0)
        if per_item:
            assert calls < calls0
        if batched:
            assert rows < rows0


def _table3_conductor60():
    return LinearPart((zeta(60, 1), zeta(60, 29), zeta(60, 11), zeta(60, 19)))


def test_inverse_skip_keeps_the_conductor60_table3_orbit(monkeypatch):
    pairs = _searches_with_and_without_inverse(
        monkeypatch, lambda: orbit(ProjClass(4, (cyc(1), cyc(2))), _table3_conductor60())
    )
    ((kind, found, *_), _), = pairs
    assert (kind, len(found)) == ("found", 60)
    _assert_same_with_fewer_images(pairs)


def test_inverse_skip_keeps_the_conductor60_table3_orbit_batched(monkeypatch):
    # every level batched, under actions of order above 3, whose inverses
    # are not their squares: a flag set on the wrong action shows here
    monkeypatch.setattr(kernel, "_BATCH_MIN", 1)
    pairs = _searches_with_and_without_inverse(
        monkeypatch, lambda: orbit(ProjClass(4, (cyc(1), cyc(2))), _table3_conductor60())
    )
    ((kind, found, *_), _), = pairs
    assert (kind, len(found)) == ("found", 60)
    _assert_same_with_fewer_images(pairs, per_item=False, batched=True)


def _n5_generic_orbit(bound):
    # the n6-orbit benchmark's n=5 class: 216 points, d = 3
    z6 = zeta(6, 1)
    rep = AffineRep(LinearPart((z6, z6, z6, z6, z6**2)), tuple(cyc(t) for t in (0, 1, 2, 5)))
    cls, _ = normalize(rep)
    return orbit(cls, rep.linear, bound=bound)


@pytest.mark.parametrize("batch_min", [64, 1 << 62], ids=["mixed-levels", "per-item"])
def test_inverse_skip_keeps_the_n5_orbit(monkeypatch, batch_min):
    monkeypatch.setattr(kernel, "_BATCH_MIN", batch_min)
    pairs = _searches_with_and_without_inverse(monkeypatch, lambda: _n5_generic_orbit(1000))
    ((kind, found, *_), _), = pairs
    assert (kind, len(found)) == ("found", 216)
    _assert_same_with_fewer_images(pairs)


def test_inverse_skip_keeps_an_orbit_with_fixed_points(monkeypatch):
    # the README example, 4 points under 6 actions, some of which fix a point
    lp = LinearPart((zeta(12, 1), zeta(12, 5), zeta(12, 3), zeta(12, 3)))
    start = ProjClass(4, (cyc(1), cyc(0)))
    gens = reduced_generators(lp)
    conductor, phi, found, _ = kernel.int_line_orbit(gens, start.coords, 100, 12)
    actions = [kernel._int_action(m, conductor) for m in gens]
    assert any(
        kernel._canon(kernel.int_apply(cols, v), conductor, phi) == v
        for v in found
        for cols in actions
    )
    pairs = _searches_with_and_without_inverse(monkeypatch, lambda: orbit(start, lp, bound=100))
    ((kind, found, *_), _), = pairs
    assert (kind, len(found)) == ("found", 4)
    _assert_same_with_fewer_images(pairs)


def test_inverse_skip_keeps_a_cut_inside_a_per_item_level(monkeypatch):
    monkeypatch.setattr(kernel, "_BATCH_MIN", 1 << 62)
    pairs = _searches_with_and_without_inverse(monkeypatch, lambda: _n5_generic_orbit(100))
    ((kind, found, *_), _), = pairs
    assert (kind, len(found)) == ("exceeded", 101)
    _assert_same_with_fewer_images(pairs)


def test_inverse_skip_keeps_the_projective_closure(monkeypatch):
    lp = _table3_conductor60()
    gens = [action_matrix_reduced(lp, 2, 3), action_matrix_reduced(lp, 1, 2)]
    pairs = _searches_with_and_without_inverse(monkeypatch, lambda: _projective_closure(gens, 200))
    ((kind, found, *_), _), = pairs
    assert (kind, len(found)) == ("found", 60)
    _assert_same_with_fewer_images(pairs)



def _n6_orbit(bound):
    """The n6-orbit benchmark's n=6 class under all 20 paired actions:
    every pure letter and its adjugate, one pair more than `orbit` uses.
    Its levels hold 1, 18, 170, 918, 1592 and 181 points.  Returns the
    vectors after the start."""
    cls, lp = _n6_class()
    gens = reduced_generators(lp)
    inverse = [a ^ 1 for a in range(len(gens))]
    _, _, found, _ = kernel.int_line_orbit(gens, cls.coords, bound, 6, inverse)
    return found[1:]


def _n6_per_item(monkeypatch, bound):
    """The n=6 search's vectors after the start, by the per-item step alone."""
    monkeypatch.setattr(kernel, "_BATCH_MIN", 1 << 62)
    return _n6_orbit(bound)


@pytest.mark.parametrize("batch_min", [64, 1], ids=["mixed-levels", "batched"])
def test_inverse_skip_keeps_the_n6_orbit(monkeypatch, batch_min):
    want = _n6_per_item(monkeypatch, 6000)
    monkeypatch.setattr(kernel, "_BATCH_MIN", batch_min)
    pairs = _searches_with_and_without_inverse(monkeypatch, lambda: _n6_orbit(6000))
    ((kind, found, *_), _), = pairs
    assert kind == "found" and found[1:] == want and len(found) == 2880
    _assert_same_with_fewer_images(pairs, per_item=batch_min > 1, batched=True)


@pytest.mark.parametrize("bound", [1000, 2000])
def test_inverse_skip_keeps_a_cut_inside_a_batched_chunk(monkeypatch, bound):
    # the (bound+1)-th vector is found by a batched chunk that drops rows:
    # the one chunk of level 2, or the second of the five of level 3
    want = _n6_per_item(monkeypatch, bound)
    monkeypatch.setattr(kernel, "_BATCH_MIN", 64)
    dropped = []  # flagged rows of each chunk of the paired search
    distinct_images = kernel._Batch.distinct_images

    def spy(self, items, frontier, skip=None):
        if skip is not None:
            dropped.append(sum(skip))
        return distinct_images(self, items, frontier, skip)

    monkeypatch.setattr(kernel._Batch, "distinct_images", spy)
    pairs = _searches_with_and_without_inverse(monkeypatch, lambda: _n6_orbit(bound))
    ((kind, found, *_), _), = pairs
    assert kind == "exceeded" and found[1:] == want and len(found) == bound + 1
    assert len(dropped) == (1 if bound == 1000 else 3) and dropped[-1] > 0
    _assert_same_with_fewer_images(pairs, batched=True)


def test_inverse_skip_keeps_per_item_batched_per_item_levels(monkeypatch):
    # at _BATCH_MIN 200 the levels of 1, 18, 170 and the last of 181 points
    # run per item, those of 918 and 1592 points batched
    want = _n6_per_item(monkeypatch, 6000)
    monkeypatch.setattr(kernel, "_BATCH_MIN", 200)
    pairs = _searches_with_and_without_inverse(monkeypatch, lambda: _n6_orbit(6000))
    ((kind, found, *_), (_, _, calls0, rows0)), = pairs
    assert kind == "found" and found[1:] == want
    # unpaired, every image of a level is computed, by its step
    assert calls0 == (1 + 18 + 170 + 181) * 20
    assert rows0 == (918 + 1592) * 20
    _assert_same_with_fewer_images(pairs, per_item=True, batched=True)


def test_inverse_skip_keeps_the_n6_orbit_when_every_hash_collides(monkeypatch):
    # with every row hashed to 0, rows collide within each chunk and with
    # every stored vector
    want = _n6_per_item(monkeypatch, 6000)
    monkeypatch.setattr(kernel, "_hash_weights", lambda width: np.zeros(width, dtype=np.uint64))
    monkeypatch.setattr(kernel, "_BATCH_MIN", 64)
    pairs = _searches_with_and_without_inverse(monkeypatch, lambda: _n6_orbit(6000))
    ((kind, found, *_), _), = pairs
    assert kind == "found" and found[1:] == want
    _assert_same_with_fewer_images(pairs, batched=True)


def test_per_item_lookups_when_every_hash_collides(monkeypatch):
    # the n=5 orbit's last level of 5 points runs per item after two
    # batched levels: each of its images meets every stored vector's hash
    monkeypatch.setattr(kernel, "_BATCH_MIN", 1 << 62)
    want = _n5_generic_orbit(1000).vectors
    monkeypatch.setattr(kernel, "_hash_weights", lambda width: np.zeros(width, dtype=np.uint64))
    monkeypatch.setattr(kernel, "_BATCH_MIN", 64)
    lookups = []
    find = kernel._Batch.find

    def spy(self, w):
        lookups.append(find(self, w))
        return lookups[-1]

    monkeypatch.setattr(kernel._Batch, "find", spy)
    pairs = _searches_with_and_without_inverse(monkeypatch, lambda: _n5_generic_orbit(1000))
    ((kind, found, *_), _), = pairs
    assert kind == "found" and found[1:] == want
    assert lookups and None not in lookups  # the level finds no new point
    _assert_same_with_fewer_images(pairs, batched=True)

def test_inverse_skip_bounds_the_work_per_orbit_point(monkeypatch):
    # a deterministic count, not a time: 6 actions on each of the 60 points
    # of the conductor-60 Table-3 orbit cost about 6 canonicalizations per
    # point unpaired; each orbit edge computed once costs at most 4
    calls = []
    canon = kernel._canon

    def counting_canon(*args):
        calls.append(1)
        return canon(*args)

    monkeypatch.setattr(kernel, "_canon", counting_canon)
    res = orbit(ProjClass(4, (cyc(1), cyc(2))), _table3_conductor60())
    assert res.size == 60
    assert len(calls) <= 4 * res.size


def _int_action_by_unit_vectors(m, conductor):
    # column t of a block is the entry times x^t, one product per column
    d = m.rows
    phi = euler_phi(conductor)
    _, entries = kernel._int_vectors(m.entries, conductor)
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


@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 5, 8, 9, 12, 15, 60])
def test_int_action_recurrence_matches_unit_vectors(conductor):
    rng = random.Random(conductor)
    for _ in range(4):
        rows = [
            [
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                + rng.randrange(-3, 4) * zeta(conductor, rng.randrange(conductor))
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        m = Mat.from_rows(rows)
        assert kernel._int_action(m, conductor) == _int_action_by_unit_vectors(m, conductor)


@pytest.mark.parametrize("conductor", [1, 3, 12])
def test_int_action_of_a_rectangular_matrix(conductor):
    # r x c: c * phi columns, output slots below r * phi
    rng = random.Random(conductor)
    phi = euler_phi(conductor)
    for rows, cols in ((5, 3), (2, 4), (1, 2)):
        m = Mat.from_rows(
            [
                [cyc(rng.randrange(-3, 4)) + rng.randrange(-2, 3) * zeta(conductor, rng.randrange(conductor))
                 for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        action = kernel._int_action(m, conductor)
        for _ in range(3):
            v = [cyc(rng.randrange(-4, 5)) + zeta(conductor, rng.randrange(conductor)) for _ in range(cols)]
            flat = [c for x in kernel._int_vectors(v, conductor)[1] for c in x]
            image = kernel.int_apply(action, flat, rows * phi)
            expected = [c for x in kernel._int_vectors(m.apply(v), conductor)[1] for c in x]
            # both are integer vectors of the same values up to one positive scale
            i = next((k for k, x in enumerate(expected) if x), 0)
            assert image[i] * expected[i] >= 0
            assert [x * expected[i] for x in image] == [y * image[i] for y in expected]
            assert any(image) == any(expected)


# ---- one braid action per linear part ------------------------------------------
#
# `charvar.braid_action` builds each linear part's generator pairs once and
# shares them, with their integer matrices per search conductor, between
# every orbit and apply_braid call of that part.


def test_an_n4_pass_builds_each_action_once(monkeypatch):
    workloads = _perfbench_workloads()
    n4 = workloads.N4Tables()
    n4.setup(n4.draw(random.Random(1)))
    ops = n4.ops()
    built = []  # (linear part as stored, BraidAction), kept so no id is reused
    int_built = Counter()
    init, int_action = charvar.BraidAction.__init__, kernel._int_action

    def counting_init(self, linear):
        init(self, linear)
        built.append((tuple((x.n, x.num, x.den) for x in linear.lambdas), self))

    def counting_int_action(m, conductor):
        int_built[id(m), conductor] += 1
        return int_action(m, conductor)

    monkeypatch.setattr(charvar.BraidAction, "__init__", counting_init)
    monkeypatch.setattr(kernel, "_int_action", counting_int_action)
    for op in ops:
        assert op.run() == op.expected, op.label
    keys = [key for key, _ in built]
    assert len(keys) == len(set(keys)) == len(workloads.N4_FAMILIES)
    for _, action in built:
        assert action.gens
        for m in action.gens:
            conductors = [c for (i, c), k in int_built.items() if i == id(m)]
            assert conductors and all(int_built[id(m), c] == 1 for c in conductors)


def test_braid_actions_are_kept_for_the_last_two_linear_parts():
    lps = [lp for _, lp in _n4_families()[:3]]
    actions = [charvar.braid_action(lp) for lp in lps]
    assert charvar.braid_action(lps[2]) is actions[2]
    assert charvar.braid_action(lps[1]) is actions[1]
    assert charvar.braid_action(lps[0]) is not actions[0]
    assert charvar._braid_action.cache_info().maxsize == 2


# ---- one pure letter fewer ---------------------------------------------------------
#
# The full twist generates the centre of P_(n-1) and acts trivially on the
# classes, so `orbit` searches under every pure letter but the last one
# that is not the identity (`charvar.BraidAction`).


def _full_twist(lp):
    """M(n-2,n-1) ... M(1,3) M(1,2), the reduced matrix of the full twist."""
    twist = Mat.identity(lp.n - 2)
    for i in range(1, lp.n - 1):
        for j in range(i + 1, lp.n):
            twist = action_matrix_reduced(lp, i, j) @ twist
    return twist


def _seeded_linear_part(rng):
    """n = 4 to 7, roots of unity of conductor 3 to 12, and now and then a
    rational value; lambda_1 != 1 and the product is 1."""
    n = rng.randint(4, 7)
    while True:
        conductor = rng.randint(3, 12)
        lams = [zeta(conductor, rng.randrange(conductor)) for _ in range(n - 1)]
        if rng.random() < 0.3:
            lams[rng.randrange(n - 1)] = cyc(Fraction(rng.choice([2, -3, 5]), rng.choice([1, 3, 7])))
        last = cyc(1)
        for x in lams:
            last = last * x
        lams.append(last.inverse())
        if lams[0] != cyc(1):
            return LinearPart(tuple(lams))


def test_the_full_twist_acts_as_a_scalar():
    rng = random.Random(28)
    rational = 0
    for _ in range(40):
        lp = _seeded_linear_part(rng)
        rational += any(x.n == 1 for x in lp.lambdas)
        assert _full_twist(lp).is_scalar(), lp.lambdas
        action = charvar.BraidAction(lp)
        letters = [pair for pair in action.pairs.values() if pair is not None]
        assert action.gens == tuple(m for pair in letters[:-1] for m in pair)
        assert action.inverse == tuple(a ^ 1 for a in range(len(action.gens)))
    assert rational >= 5


def test_a_twist_that_is_not_scalar_is_refused(monkeypatch):
    lp = _n4_families()[2][1]
    reduced = charvar.action_matrix_reduced

    def squared_first_letter(linear, i, j):
        m = reduced(linear, i, j)
        return m @ m if (i, j) == (1, 2) else m

    monkeypatch.setattr(charvar, "action_matrix_reduced", squared_first_letter)
    with pytest.raises(AssertionError, match="full twist"):
        charvar.BraidAction(lp)


def _search_set_classes():
    """(class, linear part) for every row of Tables 1-3 with two generic
    starts per family, n = 5 sixth-root classes for both primitive sixth
    roots, and n = 6 classes, one with the last letters the identity."""
    for _, lp in _n4_families():
        reps = [row.rep for row in table_rows(lp).rows]
        yield from ((rep, 200) for rep in reps)
        yield from ((AffineRep(lp, (cyc(0), cyc(1), cyc(c))), 200) for c in (2, 3))
    rng = random.Random(6)
    for z in (zeta(6, 1), zeta(6, 5)):
        lp = LinearPart((z, z, z, z, z * z))
        taus = [(3, 2, 3, 2)] + [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(5)]
        yield from ((AffineRep(lp, tuple(map(cyc, tau))), 300) for tau in taus)
    a = zeta(4, 1)
    lp = LinearPart((a, cyc(1), cyc(1), cyc(1), cyc(1), a.inverse()))
    yield AffineRep(lp, tuple(map(cyc, (0, 1, 2, 3, 0)))), 100
    lp = LinearPart((zeta(6, 1),) * 6)
    for tau in ((-1, -2, -2, -1, -1), (2, -1, -1, -1, 1), (-1, 2, 2, 1, -1)):
        yield AffineRep(lp, tuple(map(cyc, tau))), 3000


def test_orbit_without_the_last_letter_finds_every_point():
    sizes = Counter()
    for rep, bound in _search_set_classes():
        cls, rot = normalize(rep)
        lp = rep.linear.rotated(rot) if rot else rep.linear
        res = orbit(cls, lp, bound=bound)
        ref = orbit(cls, lp, bound=bound, gens=reduced_generators(lp))
        assert not res.exceeded_bound and not ref.exceeded_bound
        assert (res.size, res.conductor) == (ref.size, ref.conductor)
        assert set(res.vectors) == set(ref.vectors)
        sizes[rep.n, res.size] += 1
    assert {s for n, s in sizes if n == 5} == {9, 36, 72, 108, 216}
    assert {s for n, s in sizes if n == 6} == {16, 360, 1080, 2880}


def test_an_n4_pass_canonicalizes_2808_images(monkeypatch):
    # with every pure letter it was 4182
    workloads = _perfbench_workloads()
    n4 = workloads.N4Tables()
    n4.setup(n4.draw(random.Random(1)))
    calls = []
    canon = kernel._canon

    def counting_canon(w, conductor, phi):
        calls.append(1)
        return canon(w, conductor, phi)

    monkeypatch.setattr(kernel, "_canon", counting_canon)
    for op in n4.ops():
        assert op.run() == op.expected, op.label
    assert len(calls) == 2808
