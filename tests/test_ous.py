import random
from fractions import Fraction as F

import pytest
from conftest import brute_extreme_rays, brute_polytope_vertices, rand_cone_element, rand_effect
from hypothesis import assume, given, settings, strategies as st

from gptk.errors import InputError, StructureError
from gptk import linalg
from gptk.composite import max_cone_contains, max_rule, min_rule
from gptk.linalg import basis_vec, rank, vadd, vdot, vec, vscale, vsub, vsum
from gptk.ous import (
    OrderUnitSpace,
    cone_contains,
    dual_rays,
    from_ambient,
    interval_vertices,
    is_effect,
    is_order_unit,
    is_state,
    state_polytope_vertices,
    sub_ous,
    to_ambient,
)
from gptk.polyhedra import in_cone
from gptk.systems import bit, dim1, square_bit, trit

SQUARE_VERTICES = [vec([1, 1, 1]), vec([1, 1, -1]), vec([1, -1, 1]), vec([1, -1, -1])]


def test_cone_contains_bit():
    b = bit()
    assert cone_contains(b, (1, 2))
    assert not cone_contains(b, (-1, 0))


def test_cone_contains_square_bit_against_dual_oracle():
    # membership must agree with evaluation against the four state vertices
    sq = square_bit()
    v = vec([F(1, 2), F(1, 2), 0])
    assert cone_contains(sq, v)
    assert all(vdot(v, s) >= 0 for s in SQUARE_VERTICES)
    w = vec([F(1, 4), F(1, 2), 0])
    assert cone_contains(sq, w) == all(vdot(w, s) >= 0 for s in SQUARE_VERTICES)
    assert not cone_contains(sq, w)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        cone_contains(bit(), (1, 2, 3))


def test_is_effect():
    b = bit()
    assert is_effect(b, (F(1, 2), F(1, 3)))
    assert not is_effect(b, (F(3, 2), 0))
    assert is_effect(b, b.unit)


def test_is_state():
    b = bit()
    assert is_state(b, (F(1, 3), F(2, 3)))
    assert not is_state(b, (F(6, 5), -F(1, 5)))
    assert is_state(square_bit(), (1, 1, 1))


def test_state_polytope_vertices_bit():
    assert state_polytope_vertices(bit()) == [(0, 1), (1, 0)]


def test_state_polytope_vertices_trivial():
    assert state_polytope_vertices(dim1()) == [(1,)]


def test_state_polytope_vertices_square_bit_against_oracle():
    sq = square_bit()
    got = state_polytope_vertices(sq)
    oracle = brute_polytope_vertices([(g, 0) for g in sq.cone_generators],
                                     [(sq.unit, 1)], 3)
    assert got == oracle
    assert sorted(got) == sorted(SQUARE_VERTICES)


def test_state_vertices_are_states_and_distinct():
    for sp in (bit(), trit(), square_bit()):
        verts = state_polytope_vertices(sp)
        assert len(set(verts)) == len(verts)
        assert all(is_state(sp, v) for v in verts)


def test_is_order_unit():
    b = bit()
    assert is_order_unit(b, (1, 1))
    assert not is_order_unit(b, (1, 0))
    assert is_order_unit(b, (2, 3))
    with pytest.raises(InputError):
        is_order_unit(b, (1, 2, 3))


def test_invalid_spaces_rejected():
    with pytest.raises(StructureError, match="^cone is not pointed$"):
        OrderUnitSpace(2, ((1, 0), (-1, 0), (0, 1)), (0, 1))  # line in the cone
    with pytest.raises(StructureError, match="^cone generators do not span the space$"):
        OrderUnitSpace(2, ((1, 0),), (1, 0))  # generators do not span
    with pytest.raises(StructureError, match="^unit does not lie in the cone$"):
        OrderUnitSpace(2, ((1, 0), (0, 1)), (1, -1))  # unit outside the cone
    with pytest.raises(StructureError, match="^unit is not an order unit$"):
        OrderUnitSpace(2, ((1, 0), (0, 1)), (1, 0))  # unit on the boundary


def test_sub_ous_ray():
    s = sub_ous(bit(), (1, 0))
    assert s.dim == 1
    assert s.cone_generators == ((1,),)
    assert s.unit == (1,)
    assert to_ambient(s, (1,)) == (1, 0)


def test_sub_ous_full_unit_recovers_space():
    b = bit()
    s = sub_ous(b, b.unit)
    assert s.dim == 2
    assert sorted(s.cone_generators) == [(0, 1), (1, 0)]
    assert s.unit == (1, 1)


def test_sub_ous_box():
    v = vec([1, F(1, 2)])
    # oracle: the box [0, v] for an orthant cone has the coordinate-wise vertices
    assert interval_vertices(bit(), v) == [(0, 0), (0, F(1, 2)), (1, 0), (1, F(1, 2))]
    s = sub_ous(bit(), v)
    assert s.dim == 2
    assert sorted(s.cone_generators) == [(0, F(1, 2)), (1, 0)]
    assert s.unit == (1, F(1, 2))


def test_sub_ous_rejects_bad_inputs():
    with pytest.raises(InputError):
        sub_ous(bit(), (0, 0))
    with pytest.raises(InputError):
        sub_ous(bit(), (2, 0))


def _span_plus_membership(space, v, x):
    # span_+([0,v]) = cone over the interval vertices
    gens = [w for w in interval_vertices(space, v) if any(c != 0 for c in w)]
    return in_cone(gens, x)


def _dominated_membership(space, v, x):
    # x in A_+ with x <= t v for some t >= 0
    from gptk.lp import LinProb, EQ
    prob = LinProb()
    prob.var("t")
    gens = space.cone_generators
    for k, _ in enumerate(gens):
        prob.var(("l", k))
        prob.var(("m", k))
    for coord in range(space.dim):
        prob.add({("l", k): g[coord] for k, g in enumerate(gens)}, EQ, x[coord])
        row = {("m", k): g[coord] for k, g in enumerate(gens)}
        row["t"] = -v[coord]
        prob.add(row, EQ, -x[coord])
    return prob.feasible() is not None


def test_span_plus_equals_dominated_cone_members():
    rng = random.Random(3)
    for sp in (bit(), trit(), square_bit()):
        v = rand_effect(rng, sp)
        for _ in range(12):
            x = rand_cone_element(rng, sp, scale=F(1, 3))
            assert _span_plus_membership(sp, v, x) == _dominated_membership(sp, v, x)


def test_sub_space_order_unit_and_order_agreement():
    rng = random.Random(5)
    for sp in (bit(), square_bit()):
        v = rand_effect(rng, sp)
        s = sub_ous(sp, v)
        assert is_order_unit(s, s.unit)  # the base effect dominates its sub-space
        for _ in range(8):
            x = rand_cone_element(rng, s, scale=F(1, 4))
            y = rand_cone_element(rng, s, scale=F(1, 4))
            sub_leq = cone_contains(s, vsub(y, x))
            amb_leq = cone_contains(sp, vsub(to_ambient(s, y), to_ambient(s, x)))
            assert sub_leq == amb_leq  # the two orders agree on the sub-space


def test_sub_space_span_is_difference_of_positives():
    # the sub-space span equals differences of positive-cone elements
    rng = random.Random(9)
    sp = trit()
    v = rand_effect(rng, sp)
    s = sub_ous(sp, v)
    gens_amb = [to_ambient(s, g) for g in s.cone_generators]
    for _ in range(10):
        a = rand_cone_element(rng, s, scale=F(1, 4))
        b = rand_cone_element(rng, s, scale=F(1, 4))
        diff = vsub(to_ambient(s, a), to_ambient(s, b))
        # membership in the span via exact coordinates
        coords = from_ambient(s, diff)
        assert to_ambient(s, coords) == diff
        # and differences of cone elements stay in the span
        assert in_cone(gens_amb + [tuple(-x for x in g) for g in gens_amb], diff)


def _circle_polygon():
    # the cone over a rational heptagon around the origin, via the rational
    # parametrisation of the unit circle
    ts = (0, F(1, 2), 1, 2, -3, -1, -F(1, 3))
    gens = tuple((1, (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in map(F, ts))
    return OrderUnitSpace(3, gens, (1, 0, 0))


def _probe_spaces():
    return (bit(), trit(), square_bit(), _circle_polygon(),
            min_rule(square_bit(), square_bit()).target)


def _probe_points(rng, sp):
    """Points inside, on the boundary of and outside the cone of ``sp``."""
    u = sp.unit
    points = []
    facets = dual_rays(sp)
    for f in rng.sample(facets, min(4, len(facets))):
        face = [g for g in sp.cone_generators if vdot(f, g) == 0]
        on_face = vec([0] * sp.dim)
        for g in face:
            on_face = vadd(on_face, vscale(F(rng.randint(0, 3), rng.randint(1, 3)), g))
        points.append(on_face)                                            # boundary
        points.append(vsub(on_face, vscale(F(1, rng.randint(2, 9)), u)))  # outside
    for _ in range(4):
        points.append(vadd(rand_cone_element(rng, sp), vscale(F(1, 7), u)))  # inside
        points.append(tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(sp.dim)))
    return points


def test_dual_rays_give_h_representation():
    # facet sign checks against the LP over the generators
    rng = random.Random(13)
    for sp in _probe_spaces():
        for x in _probe_points(rng, sp):
            assert cone_contains(sp, x) == in_cone(sp.cone_generators, x)


@st.composite
def _spanning_cones(draw):
    # first coordinates >= 1 keep the cone pointed, and the sum of all the
    # generators is interior once they span, so it is an order unit
    dim = draw(st.integers(2, 4))
    gen = st.tuples(st.integers(1, 3), *[st.integers(-3, 3)] * (dim - 1))
    gens = draw(st.lists(gen, min_size=dim, max_size=dim + 3))
    assume(rank(gens) == dim)
    return OrderUnitSpace(dim, gens, vsum(vec(g) for g in gens))


@settings(max_examples=60, deadline=None)
@given(_spanning_cones(), st.data())
def test_cone_contains_matches_generator_lp_on_random_cones(sp, data):
    gens, u = sp.cone_generators, sp.unit
    n = len(gens)
    coeffs = data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    combo = vsum((vscale(c, g) for c, g in zip(coeffs, gens)), sp.dim)
    free = vec(data.draw(st.lists(st.fractions(-3, 3, max_denominator=5),
                                  min_size=sp.dim, max_size=sp.dim)))
    # entries over large coprime denominators, so scaling to integers meets a large lcm
    fine = vec(data.draw(st.lists(st.fractions(-3, 3, max_denominator=10**12),
                                  min_size=sp.dim, max_size=sp.dim)))
    # exactly on a facet of the brute-force oracle, and a hair outside it
    facet = data.draw(st.sampled_from(brute_extreme_rays(gens, sp.dim)))
    face = [g for g in gens if vdot(facet, g) == 0]
    weights = data.draw(st.lists(st.fractions(0, 3, max_denominator=10**12),
                                 min_size=len(face), max_size=len(face)))
    boundary = vsum((vscale(w, g) for w, g in zip(weights, face)), sp.dim)
    outside = vsub(boundary, vscale(F(1, data.draw(st.integers(1, 10**12))), u))
    zero = vec([0] * sp.dim)
    assert cone_contains(sp, boundary) and not cone_contains(sp, outside)
    for v in (combo, free, fine, boundary, outside, zero):
        inside = in_cone(gens, v)
        assert cone_contains(sp, v) == inside
        assert is_effect(sp, v) == (inside and in_cone(gens, vsub(u, v)))
        assert is_order_unit(sp, v) == _order_unit_by_definition(sp, v)


def test_membership_tests_do_not_hash_the_space(monkeypatch):
    # the facets stored on the space are read directly, not through a cache keyed by it
    sq = square_bit()
    targets = (min_rule(sq, sq).target, max_rule(sq, sq).target)
    hashed = []
    plain = OrderUnitSpace.__hash__
    monkeypatch.setattr(OrderUnitSpace, "__hash__", lambda self: hashed.append(self) or plain(self))
    for t in targets:
        for v in (t.unit, t.cone_generators[0], vscale(-1, t.unit), vsub(t.cone_generators[0], t.unit)):
            cone_contains(t, v)
            is_effect(t, v)
            is_order_unit(t, v)
            max_cone_contains(sq, sq, v)
    assert hashed == []


def test_validation_makes_one_rref_call(monkeypatch):
    # the rank checks eliminate integer rows; only the start-basis inverse of the
    # double-description pass goes through the Fraction rref
    calls = []
    plain = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(rows) or plain(rows))
    dual_rays.cache_clear()
    _circle_polygon()
    assert dual_rays.cache_info().misses == 1
    assert len(calls) == 1


def _order_unit_by_definition(sp, v):
    # v is an order unit iff every +-e_i lies in cone({v} u {-g : g a generator})
    gens = [v] + [vscale(-1, g) for g in sp.cone_generators]
    return all(in_cone(gens, vscale(s, basis_vec(sp.dim, i)))
               for i in range(sp.dim) for s in (1, -1))


def test_is_order_unit_matches_its_definition():
    rng = random.Random(17)
    for sp in _probe_spaces():
        for v in [sp.unit] + _probe_points(rng, sp):
            assert is_order_unit(sp, v) == _order_unit_by_definition(sp, v)
