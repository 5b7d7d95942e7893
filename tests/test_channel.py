import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gptk.channel import (
    LinearMap,
    MarkovKernel,
    compose_linear,
    compose_valued_weight,
    identity_map,
    induced_morphism,
    is_channel,
    is_process,
    markov_compose,
    markov_dual,
    restrict_to_sub_ous,
)
from gptk.errors import InputError
from gptk.linalg import vdot, vec
from gptk.modj import Catalog, build_modj, observable
from gptk.ous import state_polytope_vertices, to_ambient
from gptk.systems import bit, classical, coin_testspace, delta_catalog
from gptk.vweight import ValuedWeight, is_valued_weight

HALF = F(1, 2)


def avg_channel():
    b = bit()
    return LinearMap(b, b, ((HALF, HALF), (HALF, HALF)))


def halving():
    b = bit()
    return LinearMap(b, b, ((HALF, 0), (0, HALF)))


def test_identity_is_channel():
    assert is_channel(identity_map(bit()))


def test_averaging_is_channel():
    assert is_channel(avg_channel())


def test_halving_is_process_not_channel():
    assert is_process(halving())
    assert not is_channel(halving())


def test_nonpositive_map_is_no_process():
    b = bit()
    assert not is_process(LinearMap(b, b, ((1, 0), (-1, 1))))


def test_restrict_halving():
    r = restrict_to_sub_ous(halving())
    assert is_channel(r)
    assert to_ambient(r.codomain, r.codomain.unit) == (HALF, HALF)
    assert to_ambient(r.codomain, r(bit().unit)) == (HALF, HALF)


def test_restrict_channel_is_identity_on_codomain():
    r = restrict_to_sub_ous(avg_channel())
    assert r.codomain.dim == 2
    assert is_channel(r)


def test_restrict_rank_one_process():
    b = bit()
    # Phi(a) = f(a) * (1, 0) with f = (1/2, 1/4), subnormalized positive
    phi = LinearMap(b, b, ((HALF, F(1, 4)), (0, 0)))
    assert is_process(phi)
    r = restrict_to_sub_ous(phi)
    assert r.codomain.dim == 1
    assert to_ambient(r.codomain, r.codomain.unit) == (F(3, 4), 0)
    assert is_channel(r)


def test_degenerate_process_rejected():
    b = bit()
    zero = LinearMap(b, b, ((0, 0), (0, 0)))
    with pytest.raises(InputError):
        restrict_to_sub_ous(zero)


def test_compose_valued_weight_examples():
    b = bit()
    coin = coin_testspace()
    delta = ValuedWeight(b, coin, {"x": (1, 0), "y": (0, 1)})
    out = compose_valued_weight(identity_map(b), delta)
    assert is_valued_weight(out)
    assert {x: to_ambient(out.space, v) for x, v in out.values.items()} == delta.values

    out = compose_valued_weight(avg_channel(), delta)
    assert is_valued_weight(out)
    assert all(to_ambient(out.space, v) == (HALF, HALF) for v in out.values.values())

    out = compose_valued_weight(halving(), delta)
    assert is_valued_weight(out)
    assert to_ambient(out.space, out.space.unit) == (HALF, HALF)


def test_induced_morphism_identity():
    im = induced_morphism(identity_map(bit()), delta_catalog(2))
    assert im.test_preserving
    assert all(k == v for k, v in im.outcome_map.items())


def test_induced_morphism_averaging_repetition():
    im = induced_morphism(avg_channel(), delta_catalog(2))
    assert im.test_preserving
    assert not im.excluded
    [t] = im.image.testspace.tests
    assert t == frozenset({("1", (HALF, HALF)), ("2", (HALF, HALF))})
    assert len(t) == 2  # equal effects at distinct indices survive


def test_set_image_collapses_graph_image_does_not():
    phi = avg_channel()
    effects = [vec([1, 0]), vec([0, 1])]
    set_image = {phi(e) for e in effects}
    assert len(set_image) == 1  # decompositions-style set image collapses
    im = induced_morphism(phi, delta_catalog(2))
    [t] = im.image.testspace.tests
    assert len(t) == 2  # the graph image does not


def test_induced_morphism_reports_zero_hits():
    b = bit()
    proj = LinearMap(b, b, ((1, 0), (1, 0)))  # channel killing (0, 1)
    assert is_channel(proj)
    im = induced_morphism(proj, delta_catalog(2))
    assert im.excluded == (("2", (F(0), F(1))),)
    [t] = im.image.testspace.tests
    assert t == frozenset({("1", (F(1), F(1)))})


def test_functor_laws_on_catalogs():
    b = bit()
    catalogs = [delta_catalog(2),
                Catalog(b, (observable(b, {"1": (HALF, HALF), "2": (HALF, HALF)}),)),
                Catalog(b, (observable(b, {"1": (1, 0), "2": (0, F(1, 3)), "3": (0, F(2, 3))}),))]
    phi1 = avg_channel()
    phi2 = LinearMap(b, b, ((0, 1), (1, 0)))  # swap channel
    for cat in catalogs:
        ident = induced_morphism(identity_map(b), cat)
        assert all(k == v for k, v in ident.outcome_map.items())
        lhs = induced_morphism(compose_linear(phi2, phi1), cat)
        m1 = induced_morphism(phi1, cat)
        m2 = induced_morphism(phi2, m1.image_catalog)
        for o, mid in m1.outcome_map.items():
            assert lhs.outcome_map[o] == m2.outcome_map[mid]


def test_pullback_naturality_through_induced_morphism():
    # pulling a codomain state back through Phi and lifting equals lifting
    # and pulling along the induced morphism
    b = bit()
    phi = avg_channel()
    cat = delta_catalog(2)
    im = induced_morphism(phi, cat)
    frag = build_modj(b, cat)
    for psi in state_polytope_vertices(b):
        pulled = tuple(vdot(vec(psi), phi(e)) for e in (vec([1, 0]), vec([0, 1])))
        lifted_via_phi = {("1", (F(1), F(0))): pulled[0], ("2", (F(0), F(1))): pulled[1]}
        lifted_codomain = {o: vdot(vec(psi), o[1]) for o in im.image.testspace.outcomes}
        along_morphism = {o: lifted_codomain[im.outcome_map[o]]
                          for o in frag.testspace.outcomes}
        assert along_morphism == lifted_via_phi


def test_channel_extends_to_fragment_valued_weight():
    # a channel induces the weight (i, a) -> Phi(a) on any graph fragment,
    # valued in the codomain: per-test sums hit the codomain unit exactly
    b = bit()
    for phi in (avg_channel(), identity_map(b), LinearMap(b, b, ((0, 1), (1, 0)))):
        for cat in (delta_catalog(2),
                    Catalog(b, (observable(b, {"1": (HALF, HALF), "2": (HALF, HALF)}),))):
            frag = build_modj(b, cat).testspace
            weight = ValuedWeight(b, frag, {(i, a): phi(a) for (i, a) in frag.outcomes})
            assert is_valued_weight(weight)


def test_markov_validation():
    with pytest.raises(InputError):
        MarkovKernel(((F(1, 2), F(1, 3)),))
    with pytest.raises(InputError):
        MarkovKernel(((F(3, 2), -F(1, 2)),))


def test_markov_compose_examples():
    k = MarkovKernel(((HALF, HALF), (0, 1)))
    j = MarkovKernel(((1, 0), (F(1, 3), F(2, 3))))
    assert markov_compose(j, k).matrix == ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))
    ident = MarkovKernel(((1, 0), (0, 1)))
    assert markov_compose(ident, k).matrix == k.matrix
    # deterministic kernels compose as functions
    f = MarkovKernel(((0, 1), (1, 0)))
    g = MarkovKernel(((1, 0), (1, 0)))
    assert markov_compose(g, f).matrix == ((1, 0), (1, 0))


def test_markov_dual_examples():
    k = MarkovKernel(((HALF, HALF), (0, 1)))
    d = markov_dual(k)
    assert d((1, 0)) == (HALF, 0)
    assert d((1, 1)) == (1, 1)  # unit preserved
    ident = MarkovKernel(((1, 0), (0, 1)))
    assert markov_dual(ident).matrix == identity_map(classical(2)).matrix


def test_markov_duals_are_channels():
    rng = random.Random(31)
    for _ in range(5):
        k = _rand_kernel(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert is_channel(markov_dual(k))


def _rand_kernel(rng, rows, cols):
    mat = []
    for _ in range(rows):
        cuts = sorted(F(rng.randint(0, 12), 12) for _ in range(cols - 1))
        row = []
        prev = F(0)
        for c in cuts:
            row.append(c - prev)
            prev = c
        row.append(1 - prev)
        mat.append(tuple(row))
    return MarkovKernel(tuple(mat))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.randoms())
def test_markov_contravariance(ns, nt, nu, pyrandom):
    rng = random.Random(pyrandom.randint(0, 10 ** 6))
    k = _rand_kernel(rng, ns, nt)
    j = _rand_kernel(rng, nt, nu)
    lhs = markov_dual(markov_compose(j, k))
    rhs = compose_linear(markov_dual(k), markov_dual(j))
    assert lhs.matrix == rhs.matrix
