"""Composites: product test spaces, non-signalling joint weights, tensor cones.

The minimal tensor cone is generated by products of the factor cone rays;
the maximal cone consists of tensors nonnegative against every product of
positive functionals, which by bilinearity only needs checking on the
extreme rays of the factor dual cones.  A composite rule is an explicit
positive unit-preserving bilinear map into a target space; the built-in
``min_rule`` and ``max_rule`` share the coordinatewise tensor map and differ
in the target cone.

Joint weights on a product test space are non-signalling when each side's
marginals do not depend on the partner's test; their conditionals are the
renormalized slices.  Separability is hull membership among products of the
factor model states, decided by exact LP with a Farkas certificate on
failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .errors import InputError
from .linalg import is_zero_vec, rank, tensor_vec, vdot, vec
from .lp import verify_farkas
from .modj import Catalog, Observable, build_modj, extend_to_state
from .ous import OrderUnitSpace, cone_contains, dual_rays, state_polytope_vertices
from .polyhedra import extreme_rays, hull_membership, in_cone, polytope_vertices
from .testspace import TestSpace, is_probability_weight, make_testspace
from .vweight import Model

_ZERO = Fraction(0)


def product_testspace(m: TestSpace, n: TestSpace) -> TestSpace:
    """Tests E x F over factor tests; outcomes are ordered pairs."""
    tests = [frozenset(iproduct(e, f)) for e in m.tests for f in n.tests]
    return make_testspace(tests)


def _joint_table(m: TestSpace, n: TestSpace, omega) -> dict:
    table = {}
    for x in m.outcomes:
        for y in n.outcomes:
            if (x, y) not in omega:
                raise InputError(f"joint weight missing pair {(x, y)!r}")
            table[(x, y)] = Fraction(omega[(x, y)])
    return table


def is_nonsignalling(m: TestSpace, n: TestSpace, omega) -> bool:
    """Marginals independent of the partner's test choice, exactly."""
    table = _joint_table(m, n, omega)
    if not is_probability_weight(product_testspace(m, n), table):
        raise InputError("joint weight is not a probability weight on the product")
    ref_n = n.tests[0]
    for x in m.outcomes:
        ref = sum(table[(x, y)] for y in ref_n)
        for f in n.tests[1:]:
            if sum(table[(x, y)] for y in f) != ref:
                return False
    ref_m = m.tests[0]
    for y in n.outcomes:
        ref = sum(table[(x, y)] for x in ref_m)
        for e in m.tests[1:]:
            if sum(table[(x, y)] for x in e) != ref:
                return False
    return True


def marginal_first(m: TestSpace, n: TestSpace, omega, x) -> Fraction:
    table = _joint_table(m, n, omega)
    return sum(table[(x, y)] for y in n.tests[0])


def marginal_second(m: TestSpace, n: TestSpace, omega, y) -> Fraction:
    table = _joint_table(m, n, omega)
    return sum(table[(x, y)] for x in m.tests[0])


def conditionals(m: TestSpace, n: TestSpace, omega, x) -> dict:
    """The weight on the second factor conditioned on outcome x of the first."""
    if not is_nonsignalling(m, n, omega):
        raise InputError("conditionals require a non-signalling weight")
    table = _joint_table(m, n, omega)
    w = marginal_first(m, n, omega, x)
    if w == 0:
        raise InputError(f"conditional on {x!r} is undefined (marginal zero)")
    return {y: table[(x, y)] / w for y in n.outcomes}


def conditionals_second(m: TestSpace, n: TestSpace, omega, y) -> dict:
    if not is_nonsignalling(m, n, omega):
        raise InputError("conditionals require a non-signalling weight")
    table = _joint_table(m, n, omega)
    w = marginal_second(m, n, omega, y)
    if w == 0:
        raise InputError(f"conditional on {y!r} is undefined (marginal zero)")
    return {x: table[(x, y)] / w for x in m.outcomes}


def _hull_tables(model: Model):
    order = list(model.testspace.outcomes)
    return order, [tuple(s[x] for x in order) for s in model.states]


def is_joint_state(model_a: Model, model_b: Model, omega) -> bool:
    """Every defined conditional lies in the hull of the factor model's states."""
    m, n = model_a.testspace, model_b.testspace
    if not is_nonsignalling(m, n, omega):
        raise InputError("joint states must be non-signalling")
    order_b, pts_b = _hull_tables(model_b)
    for x in m.outcomes:
        if marginal_first(m, n, omega, x) == 0:
            continue
        cond = conditionals(m, n, omega, x)
        ok, _ = hull_membership(pts_b, tuple(cond[y] for y in order_b))
        if not ok:
            return False
    order_a, pts_a = _hull_tables(model_a)
    for y in n.outcomes:
        if marginal_second(m, n, omega, y) == 0:
            continue
        cond = conditionals_second(m, n, omega, y)
        ok, _ = hull_membership(pts_a, tuple(cond[x] for x in order_a))
        if not ok:
            return False
    return True


def product_weight(alpha: dict, beta: dict) -> dict:
    return {(x, y): Fraction(a) * Fraction(b)
            for x, a in alpha.items() for y, b in beta.items()}


def is_separable(model_a: Model, model_b: Model, omega) -> bool:
    sep, _ = separability_witness(model_a, model_b, omega)
    return sep


def separability_witness(model_a: Model, model_b: Model, omega):
    """Hull membership among products of factor states.

    Returns (True, convex weights) or (False, (prob, farkas)) where the
    Farkas certificate can be re-verified with :func:`gptk.lp.verify_farkas`.
    """
    m, n = model_a.testspace, model_b.testspace
    if not is_joint_state(model_a, model_b, omega):
        raise InputError("separability applies to joint states")
    table = _joint_table(m, n, omega)
    pairs = [(x, y) for x in m.outcomes for y in n.outcomes]
    points = []
    for sa in model_a.states:
        for sb in model_b.states:
            points.append(tuple(sa[x] * sb[y] for (x, y) in pairs))
    target = tuple(table[p] for p in pairs)
    return hull_membership(points, target)


def check_separability_certificate(witness) -> bool:
    prob, farkas = witness
    return verify_farkas(prob, farkas)


def min_cone_contains(a: OrderUnitSpace, b: OrderUnitSpace, t) -> bool:
    """t is a nonnegative combination of products of factor cone rays."""
    t = vec(t)
    if len(t) != a.dim * b.dim:
        raise InputError("tensor has the wrong length")
    gens = [tensor_vec(g, h) for g in a.cone_generators for h in b.cone_generators]
    return in_cone(gens, t)


def max_cone_contains(a: OrderUnitSpace, b: OrderUnitSpace, t) -> bool:
    """(f x g)(t) >= 0 on all pairs of extreme rays of the factor dual cones."""
    t = vec(t)
    if len(t) != a.dim * b.dim:
        raise InputError("tensor has the wrong length")
    for f in dual_rays(a):
        for g in dual_rays(b):
            if vdot(tensor_vec(f, g), t) < 0:
                return False
    return True


@dataclass(frozen=True, eq=False)
class BilinearRule:
    """A composite: target space plus a positive unit-preserving bilinear map.

    coefficients[k][i][j] is the k-th target coordinate of pi(e_i, e_j)."""

    a: OrderUnitSpace
    b: OrderUnitSpace
    target: OrderUnitSpace
    coefficients: tuple

    def __post_init__(self):
        co = tuple(tuple(vec(row) for row in plane) for plane in self.coefficients)
        if (len(co) != self.target.dim
                or any(len(plane) != self.a.dim for plane in co)
                or any(len(row) != self.b.dim for plane in co for row in plane)):
            raise InputError("coefficient tensor shape mismatch")
        object.__setattr__(self, "coefficients", co)
        for g in self.a.cone_generators:
            for h in self.b.cone_generators:
                if not cone_contains(self.target, self.apply(g, h)):
                    raise InputError("bilinear map is not positive on cone pairs")
        if self.apply(self.a.unit, self.b.unit) != self.target.unit:
            raise InputError("bilinear map must send the unit pair to the unit")

    def apply(self, x, y):
        x, y = vec(x), vec(y)
        out = []
        for plane in self.coefficients:
            out.append(sum((x[i] * vdot(plane[i], y) for i in range(self.a.dim)), _ZERO))
        return tuple(out)


def _tensor_coefficients(a: OrderUnitSpace, b: OrderUnitSpace):
    co = []
    for k in range(a.dim * b.dim):
        i, j = divmod(k, b.dim)
        plane = [[_ZERO] * b.dim for _ in range(a.dim)]
        plane[i][j] = Fraction(1)
        co.append(tuple(tuple(row) for row in plane))
    return tuple(co)


def min_rule(a: OrderUnitSpace, b: OrderUnitSpace) -> BilinearRule:
    """Coordinatewise tensor into the minimal-cone composite."""
    gens = tuple(tensor_vec(g, h) for g in a.cone_generators for h in b.cone_generators)
    target = OrderUnitSpace(a.dim * b.dim, gens, tensor_vec(a.unit, b.unit))
    return BilinearRule(a, b, target, _tensor_coefficients(a, b))


def max_rule(a: OrderUnitSpace, b: OrderUnitSpace) -> BilinearRule:
    """Coordinatewise tensor into the maximal-cone composite.

    The maximal cone's rays are recovered exactly from its inequality
    description by the double-description pass."""
    normals = [tensor_vec(f, g) for f in dual_rays(a) for g in dual_rays(b)]
    gens = tuple(extreme_rays(normals, a.dim * b.dim))
    target = OrderUnitSpace(a.dim * b.dim, gens, tensor_vec(a.unit, b.unit))
    return BilinearRule(a, b, target, _tensor_coefficients(a, b))


@dataclass(eq=False)
class MonoidalMorphism:
    """((x,a),(y,b)) -> ((x,y), pi(a,b)) with the induced target catalog."""

    rule: BilinearRule
    catalog_a: Catalog
    catalog_b: Catalog
    frag_a: object
    frag_b: object
    product_catalog: Catalog
    fragment: object  # target-fragment model
    outcome_map: dict
    excluded: tuple
    test_preserving: bool


def monoidal_map(rule: BilinearRule, catalog_a: Catalog,
                 catalog_b: Catalog) -> MonoidalMorphism:
    if catalog_a.space != rule.a or catalog_b.space != rule.b:
        raise InputError("catalogs do not match the rule's factors")
    frag_a = build_modj(rule.a, catalog_a)
    frag_b = build_modj(rule.b, catalog_b)
    outcome_map = {}
    excluded = []
    product_obs = []
    for f in catalog_a.observables:
        for g in catalog_b.observables:
            assignment = {}
            for x, a in f.assignment.items():
                for y, b in g.assignment.items():
                    val = rule.apply(a, b)
                    if is_zero_vec(val):
                        excluded.append(((x, a), (y, b)))
                        continue
                    assignment[(x, y)] = val
                    outcome_map[((x, a), (y, b))] = ((x, y), val)
            product_obs.append(Observable(rule.target, tuple(assignment.keys()),
                                          assignment))
    product_catalog = Catalog(rule.target, tuple(product_obs))
    fragment = build_modj(rule.target, product_catalog)
    tests = set(fragment.testspace.tests)
    ok = True
    for f in catalog_a.observables:
        for g in catalog_b.observables:
            image = frozenset(
                outcome_map[((x, a), (y, b))]
                for x, a in f.assignment.items()
                for y, b in g.assignment.items()
                if ((x, a), (y, b)) in outcome_map)
            if image not in tests:
                ok = False
    return MonoidalMorphism(rule, catalog_a, catalog_b, frag_a, frag_b,
                            product_catalog, fragment, outcome_map,
                            tuple(excluded), ok)


def pullback_joint_weight(mm: MonoidalMorphism, gamma) -> dict:
    """The joint table mu((x,a),(y,b)) = gamma(pi(a, b)) of a target state."""
    gamma = vec(gamma)
    table = {}
    for xa in mm.frag_a.testspace.outcomes:
        for yb in mm.frag_b.testspace.outcomes:
            table[(xa, yb)] = vdot(gamma, mm.rule.apply(xa[1], yb[1]))
    return table


def monoidality_check(rule: BilinearRule, catalog_a: Catalog,
                      catalog_b: Catalog) -> bool:
    """Sweep the target state-polytope vertices through the pullback.

    Each pulled-back table must be non-signalling on the product of the
    factor fragments, and each of its conditionals must extend to a state of
    the corresponding factor space."""
    mm = monoidal_map(rule, catalog_a, catalog_b)
    if not mm.test_preserving or mm.excluded:
        return False
    ts_a, ts_b = mm.frag_a.testspace, mm.frag_b.testspace
    for gamma in state_polytope_vertices(rule.target):
        mu = pullback_joint_weight(mm, gamma)
        if not is_nonsignalling(ts_a, ts_b, mu):
            return False
        for xa in ts_a.outcomes:
            if marginal_first(ts_a, ts_b, mu, xa) == 0:
                continue
            cond = conditionals(ts_a, ts_b, mu, xa)
            constraints = [(b, cond[(y, b)]) for (y, b) in ts_b.outcomes]
            if extend_to_state(rule.b, constraints) is None:
                return False
        for yb in ts_b.outcomes:
            if marginal_second(ts_a, ts_b, mu, yb) == 0:
                continue
            cond = conditionals_second(ts_a, ts_b, mu, yb)
            constraints = [(a, cond[(x, a)]) for (x, a) in ts_a.outcomes]
            if extend_to_state(rule.a, constraints) is None:
                return False
    return True


def composite_flags(model_c: Model, mm: MonoidalMorphism) -> dict:
    """Strength and local tomography of a composite instance.

    strong: every product of factor state generators is the pullback of some
    state in the composite model's hull (one LP per pair).
    locally_tomographic: the pullback map gamma -> (gamma(pi(a,b)))_pairs has
    trivial kernel, i.e. the pi(a,b) span the target space.
    """
    pairs = [(xa, yb) for xa in mm.frag_a.testspace.outcomes
             for yb in mm.frag_b.testspace.outcomes]
    pulled = []
    for s in model_c.states:
        pulled.append(tuple(s[mm.outcome_map[pair]] if pair in mm.outcome_map else _ZERO
                            for pair in pairs))
    strong = True
    for sa in mm.frag_a.model.states:
        for sb in mm.frag_b.model.states:
            target = tuple(sa[xa] * sb[yb] for (xa, yb) in pairs)
            ok, _ = hull_membership(pulled, target)
            if not ok:
                strong = False
                break
        if not strong:
            break
    rows = [mm.rule.apply(xa[1], yb[1]) for (xa, yb) in pairs]
    locally_tomographic = rank(rows) == mm.rule.target.dim
    return {"strong": strong, "locally_tomographic": locally_tomographic}


def ns_joint_vertices(model_a: Model, model_b: Model) -> list:
    """Vertices of the non-signalling polytope over the product test space.

    For models whose state sets are the full weight polytopes the conditional
    constraints are automatic, so these are exactly the joint states; each
    returned vertex is re-checked against :func:`is_joint_state`."""
    m, n = model_a.testspace, model_b.testspace
    pairs = [(x, y) for x in m.outcomes for y in n.outcomes]
    pos = {p: i for i, p in enumerate(pairs)}
    npairs = len(pairs)
    eqs = []
    for e in m.tests:
        for f in n.tests:
            row = [_ZERO] * npairs
            for x in e:
                for y in f:
                    row[pos[(x, y)]] = Fraction(1)
            eqs.append((tuple(row), Fraction(1)))
    ref_n = n.tests[0]
    for x in m.outcomes:
        for f in n.tests[1:]:
            row = [_ZERO] * npairs
            for y in f:
                row[pos[(x, y)]] += Fraction(1)
            for y in ref_n:
                row[pos[(x, y)]] -= Fraction(1)
            eqs.append((tuple(row), _ZERO))
    ref_m = m.tests[0]
    for y in n.outcomes:
        for e in m.tests[1:]:
            row = [_ZERO] * npairs
            for x in e:
                row[pos[(x, y)]] += Fraction(1)
            for x in ref_m:
                row[pos[(x, y)]] -= Fraction(1)
            eqs.append((tuple(row), _ZERO))
    ineqs = [(tuple(Fraction(1) if j == i else _ZERO for j in range(npairs)), _ZERO)
             for i in range(npairs)]
    verts = polytope_vertices(ineqs, eqs, npairs)
    out = []
    for v in verts:
        table = dict(zip(pairs, v))
        if not is_joint_state(model_a, model_b, table):
            raise InputError("NS vertex escapes the factor state hulls; "
                             "models must carry full weight polytopes")
        out.append(table)
    return out
