import random
from fractions import Fraction as F

import pytest
from conftest import brute_extreme_rays, rand_fraction

from gptk import composite
from gptk.composite import (
    JointWeight,
    check_separability_certificate,
    composite_flags,
    conditionals,
    is_joint_state,
    is_nonsignalling,
    is_separable,
    max_cone_contains,
    max_rule,
    min_cone_contains,
    min_rule,
    monoidal_map,
    monoidality_check,
    ns_joint_vertices,
    product_testspace,
    product_weight,
    pullback_joint_weight,
    separability_witness,
)
from gptk.errors import InputError
from gptk.linalg import solve_linear, tensor_vec, vdot, vec
from gptk.modj import Catalog, observable
from gptk.ous import state_polytope_vertices
from gptk.systems import (
    bit,
    classical,
    classical_bit_model,
    coin_testspace,
    delta_catalog,
    dim1,
    gbit_model,
    gbit_testspace,
    grid_testspace,
    permutation_catalog,
    pr_box,
    square_bit,
    square_state_space,
)
from gptk.testspace import make_testspace
from gptk.vweight import Model

HALF = F(1, 2)


def test_product_testspace_examples():
    one = product_testspace(coin_testspace(), make_testspace([{"p", "q"}]))
    assert len(one.tests) == 1 and len(one.outcomes) == 4
    two = product_testspace(gbit_testspace(), gbit_testspace())
    assert len(two.tests) == 4
    grid = product_testspace(grid_testspace(), coin_testspace())
    assert len(grid.tests) == 6


def test_product_weight_is_nonsignalling():
    m = gbit_testspace()
    alpha = {"X0": F(1), "X1": F(0), "Y0": HALF, "Y1": HALF}
    beta = {"X0": F(1, 3), "X1": F(2, 3), "Y0": F(1), "Y1": F(0)}
    assert is_nonsignalling(m, m, product_weight(alpha, beta))


def test_signalling_counterexample():
    # two tests on the B side; the A-marginal flips with the B test choice
    m = coin_testspace()
    n = gbit_testspace()
    omega = {(x, y): F(0) for x in m.outcomes for y in n.outcomes}
    omega[("x", "X0")] = F(1)
    omega[("y", "Y0")] = F(1)
    assert not is_nonsignalling(m, n, omega)


def test_pr_box_is_nonsignalling():
    ts = gbit_testspace()
    assert is_nonsignalling(ts, ts, pr_box())


def test_conditionals_examples():
    m = gbit_testspace()
    alpha = {"X0": HALF, "X1": HALF, "Y0": F(1), "Y1": F(0)}
    beta = {"X0": F(1, 4), "X1": F(3, 4), "Y0": HALF, "Y1": HALF}
    omega = product_weight(alpha, beta)
    assert conditionals(m, m, omega, "X0") == beta
    pr = pr_box()
    cond = conditionals(m, m, pr, "X0")
    assert cond == {"X0": F(1), "X1": F(0), "Y0": F(1), "Y1": F(0)}
    zero_marg = product_weight({"X0": F(0), "X1": F(1), "Y0": HALF, "Y1": HALF}, beta)
    with pytest.raises(InputError):
        conditionals(m, m, zero_marg, "X0")


def test_is_joint_state_examples():
    ma = gbit_model()
    assert is_joint_state(ma, ma, pr_box())
    alpha = {"X0": F(1), "X1": F(0), "Y0": HALF, "Y1": HALF}
    beta = {"X0": HALF, "X1": HALF, "Y0": F(0), "Y1": F(1)}
    assert is_joint_state(ma, ma, product_weight(alpha, beta))
    # restrict the B model to a proper face: the same product escapes it
    small = Model(gbit_testspace(),
                  ({"X0": F(1), "X1": F(0), "Y0": F(1), "Y1": F(0)},))
    assert not is_joint_state(ma, small, product_weight(alpha, beta))
    # the mirror: a restricted first factor is caught by the side-1 conditionals
    assert not is_joint_state(small, ma, product_weight(beta, alpha))


def test_zero_marginals_skip_undefined_conditionals():
    ts = gbit_testspace()
    alpha = {"X0": F(1), "X1": F(0), "Y0": HALF, "Y1": HALF}
    beta = {"X0": HALF, "X1": HALF, "Y0": F(0), "Y1": F(1)}
    jw = JointWeight(ts, ts, product_weight(alpha, beta))
    assert jw.marginal(0, "X1") == 0 and jw.marginal(1, "Y0") == 0
    for side, u in ((0, "X1"), (1, "Y0")):
        with pytest.raises(InputError, match="undefined"):
            jw.conditional(side, u)
    assert list(jw.defined_conditionals(0)) == [beta] * 3
    assert list(jw.defined_conditionals(1)) == [alpha] * 3
    assert is_joint_state(gbit_model(), gbit_model(), product_weight(alpha, beta))


def test_second_side_conditional_is_the_column_slice():
    ts = gbit_testspace()
    alpha = {"X0": F(1, 3), "X1": F(2, 3), "Y0": F(1), "Y1": F(0)}
    beta = {"X0": F(1, 4), "X1": F(3, 4), "Y0": HALF, "Y1": HALF}
    jw = JointWeight(ts, ts, product_weight(alpha, beta))
    assert jw.marginal(1, "X1") == F(3, 4)
    assert jw.conditional(1, "X1") == alpha
    # PR box column Y1: (X1, Y1) and (Y0, Y1) carry 1/2 each, over marginal 1/2
    pr = JointWeight(ts, ts, pr_box())
    assert pr.conditional(1, "Y1") == {"X0": F(0), "X1": F(1), "Y0": F(1), "Y1": F(0)}


def test_joint_weight_errors():
    ts = gbit_testspace()
    pr = pr_box()
    with pytest.raises(InputError, match="missing pair"):
        JointWeight(ts, ts, {k: v for k, v in pr.items() if k != ("Y1", "Y1")})
    with pytest.raises(InputError, match="not a probability weight"):
        JointWeight(ts, ts, {k: 2 * v for k, v in pr.items()})
    signalling = {(x, y): F(0) for x in coin_testspace().outcomes for y in ts.outcomes}
    signalling[("x", "X0")] = signalling[("y", "Y0")] = F(1)
    jw = JointWeight(coin_testspace(), ts, signalling)
    assert not jw.nonsignalling
    with pytest.raises(InputError, match="non-signalling"):
        jw.conditional(0, "x")


def test_min_cone_examples():
    b = bit()
    assert min_cone_contains(b, b, tensor_vec(b.unit, b.unit))
    assert not min_cone_contains(b, b, (1, 0, 0, -1))
    rng = random.Random(41)
    for _ in range(10):
        lam = [[F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)]
        t = vec([0] * 4)
        for i, g in enumerate(b.cone_generators):
            for j, h in enumerate(b.cone_generators):
                t = vec(a + lam[i][j] * c for a, c in zip(t, tensor_vec(g, h)))
        assert min_cone_contains(b, b, t)


def pr_tensor():
    """The PR box as a tensor over the square state space.

    Solved exactly from its 16 evaluation constraints against products of
    the factor effect rays."""
    v = square_state_space()
    effects = {("X", 0): vec([HALF, HALF, 0]), ("X", 1): vec([HALF, -HALF, 0]),
               ("Y", 0): vec([HALF, 0, HALF]), ("Y", 1): vec([HALF, 0, -HALF])}
    rows, rhs = [], []
    pr = pr_box()
    for (s, i), f in effects.items():
        for (t, j), g in effects.items():
            rows.append(tensor_vec(f, g))
            rhs.append(pr[(f"{s}{i}", f"{t}{j}")])
    w = solve_linear(rows, rhs)
    assert w is not None
    return v, w


def test_pr_tensor_in_max_not_min():
    v, w = pr_tensor()
    assert w == (1, 0, 0, 0, 1, 1, 0, 1, -1)
    assert max_cone_contains(v, v, w)
    assert not min_cone_contains(v, v, w)


def test_cone_sandwich_on_samples():
    rng = random.Random(43)
    pairs = [(bit(), bit()), (bit(), square_bit()), (square_bit(), square_bit())]
    for a, b in pairs:
        for _ in range(15):
            t = tuple(rand_fraction(rng) for _ in range(a.dim * b.dim))
            if min_cone_contains(a, b, t):
                assert max_cone_contains(a, b, t)


def _max_cone_oracle(a, b):
    """Membership in the max tensor cone by Fraction sums over brute-force facets."""
    fa = brute_extreme_rays(a.cone_generators, a.dim)
    fb = brute_extreme_rays(b.cone_generators, b.dim)
    return fa, lambda t: all(vdot(tensor_vec(f, g), t) >= 0 for f in fa for g in fb)


def test_max_cone_contains_on_unequal_factors():
    # factors of different dimension, so a row/column mix-up of the tensor shows
    rng = random.Random(47)
    for a, b in ((bit(), square_bit()), (square_bit(), bit()), (classical(3), square_bit())):
        fa, oracle = _max_cone_oracle(a, b)
        unit = tensor_vec(a.unit, b.unit)
        points = [tuple(rand_fraction(rng) for _ in range(a.dim * b.dim)) for _ in range(25)]
        points += [tuple(x + rand_fraction(rng, -1, 1) for x in unit) for _ in range(25)]
        for f in fa:
            # on the face where every f (x) g vanishes, and a hair outside it
            face = [tensor_vec(g, h) for g in a.cone_generators if vdot(f, g) == 0
                    for h in b.cone_generators]
            edge = tuple(sum(F(rng.randint(0, 3), rng.randint(1, 3)) * v[k] for v in face)
                         for k in range(a.dim * b.dim))
            points += [edge, tuple(x - F(1, 10**9) * u for x, u in zip(edge, unit))]
        answers = [max_cone_contains(a, b, t) for t in points]
        assert answers == [oracle(t) for t in points]
        assert True in answers and False in answers


def test_classical_collapse_bit_bit():
    rng = random.Random(44)
    b = bit()
    for _ in range(30):
        t = tuple(rand_fraction(rng) for _ in range(4))
        assert min_cone_contains(b, b, t) == max_cone_contains(b, b, t)


def test_separability_examples():
    ma = gbit_model()
    alpha = {"X0": F(1), "X1": F(0), "Y0": HALF, "Y1": HALF}
    beta = {"X0": HALF, "X1": HALF, "Y0": F(0), "Y1": F(1)}
    prod = product_weight(alpha, beta)
    assert is_separable(ma, ma, prod)
    # mixture of two product states stays separable
    other = product_weight(beta, alpha)
    mix = {k: HALF * prod[k] + HALF * other[k] for k in prod}
    assert is_separable(ma, ma, mix)
    sep, witness = separability_witness(ma, ma, pr_box())
    assert not sep
    assert check_separability_certificate(witness)


def test_monoidal_map_scalar_multiplication():
    rule = min_rule(dim1(), dim1())
    mm = monoidal_map(rule, permutation_catalog(), delta_catalog(1))
    assert mm.test_preserving and not mm.excluded
    # product observables carry the products of the scalars
    outs = {o[1][0] for o in mm.fragment.testspace.outcomes}
    assert outs == {F(1, 6), F(1, 3), F(1, 2)}


def test_monoidal_map_delta_bits():
    rule = min_rule(bit(), bit())
    mm = monoidal_map(rule, delta_catalog(2), delta_catalog(2))
    [t] = mm.fragment.testspace.tests
    assert len(t) == 4
    effs = sorted(o[1] for o in t)
    assert effs == sorted((tensor_vec(g, h)
                           for g in bit().cone_generators
                           for h in bit().cone_generators))


def test_monoidal_map_unit_singleton():
    sp = dim1()
    unit_cat = Catalog(sp, (observable(sp, {"i": (1,)}),))
    rule = min_rule(sp, sp)
    mm = monoidal_map(rule, unit_cat, unit_cat)
    [t] = mm.fragment.testspace.tests
    assert t == frozenset({(("i", "i"), (F(1),))})


def test_monoidality_examples():
    assert monoidality_check(min_rule(dim1(), dim1()),
                             permutation_catalog(), delta_catalog(1))
    assert monoidality_check(min_rule(bit(), bit()),
                             delta_catalog(2), delta_catalog(2))


def test_monoidality_builds_one_product_testspace_per_vertex(monkeypatch):
    # operation-count gate: each target state vertex's pulled-back table is
    # validated once, not once per outcome
    rule = min_rule(bit(), bit())
    calls = []
    real = composite.product_testspace

    def counting(m, n):
        calls.append(1)
        return real(m, n)

    monkeypatch.setattr(composite, "product_testspace", counting)
    assert monoidality_check(rule, delta_catalog(2), delta_catalog(2))
    assert len(calls) == len(state_polytope_vertices(rule.target)) == 4


def test_pullback_bilinearity():
    rule = min_rule(bit(), bit())
    mm = monoidal_map(rule, delta_catalog(2), delta_catalog(2))
    for gamma in state_polytope_vertices(rule.target):
        mu = pullback_joint_weight(mm, gamma)
        # mu depends on the outcome pair only through a bilinear form in the
        # effect coordinates: the value table has rank compatible with one form
        for (xa, yb), value in mu.items():
            assert value == vdot(vec(gamma), tensor_vec(xa[1], yb[1]))


def test_monoidal_map_symmetry():
    rule = min_rule(bit(), bit())
    mm = monoidal_map(rule, delta_catalog(2), delta_catalog(2))
    mm_swapped = monoidal_map(rule, delta_catalog(2), delta_catalog(2))
    for ((xa, yb), ((x, y), val)) in mm.outcome_map.items():
        ((x2, y2), val2) = mm_swapped.outcome_map[(yb, xa)]
        assert (x2, y2) == (y, x)
        # coordinate swap on the tensor
        d = bit().dim
        swapped = tuple(val[j * d + i] for i in range(d) for j in range(d))
        assert val2 == swapped


def test_composite_flags_min_bits():
    rule = min_rule(bit(), bit())
    mm = monoidal_map(rule, delta_catalog(2), delta_catalog(2))
    flags = composite_flags(mm.fragment.model, mm)
    assert flags == {"strong": True, "locally_tomographic": True}


def test_composite_flags_single_product_state_not_strong():
    rule = min_rule(bit(), bit())
    mm = monoidal_map(rule, delta_catalog(2), delta_catalog(2))
    ts = mm.fragment.testspace
    [t] = ts.tests
    single = Model(ts, ({o: (F(1) if o[0] == ("1", "1") else F(0)) for o in t},))
    flags = composite_flags(single, mm)
    assert flags["strong"] is False


def test_max_rule_cone_sandwiches_min_rule():
    sq = square_bit()
    lo, hi = min_rule(sq, sq), max_rule(sq, sq)
    # every minimal-cone generator lies in the maximal cone, and the maximal
    # generators pass their own membership test
    for g in lo.target.cone_generators:
        assert vec(g) in set(map(vec, lo.target.cone_generators))
        assert max_cone_contains(sq, sq, g)
    from gptk.polyhedra import in_cone as _in_cone
    assert all(_in_cone(hi.target.cone_generators, g)
               for g in lo.target.cone_generators)
    for g in hi.target.cone_generators:
        assert max_cone_contains(sq, sq, g)


def test_ns_vertices_two_bit():
    m = classical_bit_model()
    verts = ns_joint_vertices(m, m)
    assert len(verts) == 4
    for v in verts:
        assert set(v.values()) <= {F(0), F(1)}


def test_ns_pr_box_is_vertex_of_gbit_pair():
    verts = ns_joint_vertices(gbit_model(), gbit_model())
    assert len(verts) == 24
    pr = pr_box()
    assert any(v == pr for v in verts)
