import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from math import comb, gcd

import pytest
from conftest import brute_extreme_rays, brute_polytope_vertices, rand_fraction

from gptk import linalg, polyhedra
from gptk.errors import StructureError
from gptk.linalg import rank, tensor_vec, vdot
from gptk.ous import dual_rays
from gptk.polyhedra import extreme_rays, hull_membership, in_cone, polytope_vertices
from gptk.lp import verify_farkas
from gptk.systems import classical, square_bit


def test_orthant_rays():
    rays = extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert rays == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_square_dual_cone_rays():
    # {v : v.(1,s,t) >= 0, s,t = +-1}: computed against the brute oracle
    normals = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
    assert extreme_rays(normals, 3) == brute_extreme_rays(normals, 3)


def test_unpointed_cone_rejected():
    with pytest.raises(StructureError):
        extreme_rays([(1, 0, 0), (0, 1, 0)], 3)


def test_random_cones_match_oracle():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.choice([2, 3, 4])
        m = rng.randint(dim, dim + 3)
        normals = [tuple(rand_fraction(rng) for _ in range(dim)) for _ in range(m)]
        try:
            got = extreme_rays(normals, dim)
        except StructureError:
            from gptk.linalg import rank
            assert rank(normals) < dim
            continue
        assert got == brute_extreme_rays(normals, dim)


def test_box_vertices():
    ineqs = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -F(1, 2))]
    verts = polytope_vertices(ineqs, [], 2)
    assert verts == [(0, 0), (0, F(1, 2)), (1, 0), (1, F(1, 2))]


def test_simplex_with_equality():
    ineqs = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)]
    eqs = [((1, 1, 1), 1)]
    verts = polytope_vertices(ineqs, eqs, 3)
    assert verts == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert verts == brute_polytope_vertices(ineqs, eqs, 3)


def test_empty_polytope():
    assert polytope_vertices([((1,), 1)], [((1,), 0)], 1) == []


def test_unbounded_polytope_raises():
    with pytest.raises(StructureError):
        polytope_vertices([((1, 0), 0), ((0, 1), 0)], [], 2)


def test_random_polytopes_match_oracle():
    rng = random.Random(11)
    for _ in range(20):
        dim = rng.choice([2, 3])
        # random bounded polytope: box plus random cuts
        ineqs = [(tuple(F(1) if j == i else F(0) for j in range(dim)), F(-1))
                 for i in range(dim)]
        ineqs += [(tuple(F(-1) if j == i else F(0) for j in range(dim)), F(-1))
                  for i in range(dim)]
        for _ in range(rng.randint(0, 3)):
            row = tuple(rand_fraction(rng) for _ in range(dim))
            ineqs.append((row, rand_fraction(rng, lo=-2, hi=0)))
        got = polytope_vertices(ineqs, [], dim)
        assert got == brute_polytope_vertices(ineqs, [], dim)


def test_hull_membership_and_certificate():
    pts = [(0, 0), (1, 0), (0, 1)]
    ok, weights = hull_membership(pts, (F(1, 3), F(1, 3)))
    assert ok and sum(weights) == 1
    ok, witness = hull_membership(pts, (2, 2))
    assert not ok
    prob, farkas = witness
    assert verify_farkas(prob, farkas)


def test_in_cone():
    assert in_cone([(1, 0), (1, 1)], (3, 2))
    assert not in_cone([(1, 0), (1, 1)], (0, -1))


def _assert_canonical(rays):
    assert rays == sorted(rays)
    for r in rays:
        assert all(type(x) is F and x.denominator == 1 for x in r)
        assert gcd(*(x.numerator for x in r)) == 1


def _square_max_normals():
    sq = square_bit()
    return [tensor_vec(f, g) for f in dual_rays(sq) for g in dual_rays(sq)]


def test_tensor_cones_match_oracle():
    # facets and generators of stock spaces, tensored: degenerate cones whose
    # rays lie on many more than dim - 1 normals
    # (b (x) a is a coordinate permutation of a (x) b, so pairs are unordered)
    cones = set()
    for a, b in combinations_with_replacement([square_bit(), classical(2), classical(3)], 2):
        for xs, ys in product((dual_rays(a), a.cone_generators),
                              (dual_rays(b), b.cone_generators)):
            cones.add((tuple(sorted(tensor_vec(x, y) for x in xs for y in ys)), a.dim * b.dim))
    checked = 0
    for normals, dim in sorted(cones):
        if comb(len(normals), dim - 1) > 500:
            continue  # too big for the brute-force oracle
        got = extreme_rays(normals, dim)
        _assert_canonical(got)
        assert got == brute_extreme_rays(normals, dim)
        checked += 1
    assert checked == 7


def test_degenerate_sign_cones_match_oracle():
    # {-1, 0, 1} normals with duplicated and positively rescaled rows
    rng = random.Random(3)
    for _ in range(20):
        dim = rng.choice([5, 6])
        normals = [tuple(rng.choice((-1, 0, 1)) for _ in range(dim))
                   for _ in range(rng.randint(dim, dim + 2))]
        for _ in range(rng.randint(1, 2)):
            row = rng.choice(normals)
            normals.append(tuple(F(rng.randint(1, 5), rng.randint(1, 3)) * x for x in row))
        rng.shuffle(normals)
        try:
            got = extreme_rays(normals, dim)
        except StructureError:
            assert rank(normals) < dim
            continue
        _assert_canonical(got)
        assert got == brute_extreme_rays(normals, dim)


def test_square_max_cone_rays():
    normals = _square_max_normals()
    assert len(normals) == 16
    rays = extreme_rays(normals, 9)
    _assert_canonical(rays)
    assert len(rays) == 24
    for r in rays:
        assert all(vdot(a, r) >= 0 for a in normals)
        assert rank([a for a in normals if vdot(a, r) == 0]) == 8


def test_extreme_rays_runs_one_rref(monkeypatch):
    # operation-count gate: the only elimination over Fractions is the
    # inverse of the start basis
    normals = _square_max_normals()
    calls = []
    real = linalg.rref

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    if hasattr(polyhedra, "rref"):
        monkeypatch.setattr(polyhedra, "rref", counting)
    assert len(extreme_rays(normals, 9)) == 24
    assert len(calls) <= 1
