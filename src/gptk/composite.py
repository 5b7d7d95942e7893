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
renormalized slices.  ``JointWeight`` reads and validates a table once and
answers both sides' marginals and conditionals from it.  Separability is hull membership among products of the
factor model states, decided by exact LP with a Farkas certificate on
failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from operator import mul

from .errors import InputError
from .linalg import is_zero_vec, rank, tensor_vec, vdot, vec
from .lp import verify_farkas
from .modj import Catalog, Observable, build_modj, extend_to_state
from .ous import OrderUnitSpace, cone_contains, dual_rays, state_polytope_vertices
from .polyhedra import _int_ray, extreme_rays, hull_membership, in_cone, polytope_vertices
from .testspace import TestSpace, is_probability_weight, make_testspace
from .vweight import Model

_ZERO = Fraction(0)


def product_testspace(m: TestSpace, n: TestSpace) -> TestSpace:
    """Tests E x F over factor tests; outcomes are ordered pairs."""
    tests = [frozenset(iproduct(e, f)) for e in m.tests for f in n.tests]
    return make_testspace(tests)


def _pair(side, u, v):
    """The product outcome with u on ``side`` and v on the other factor."""
    return (u, v) if side == 0 else (v, u)


def _ns_rows(m: TestSpace, n: TestSpace):
    """Non-signalling equations as (lhs pairs, rhs pairs): the mass of each
    outcome of one side over each later test of the other side equals its
    mass over the other side's first test."""
    for side, (own, other) in enumerate(((m, n), (n, m))):
        ref = other.tests[0]
        for u in own.outcomes:
            for t in other.tests[1:]:
                yield [_pair(side, u, v) for v in t], [_pair(side, u, v) for v in ref]


class JointWeight:
    """A probability weight on the product of m and n, read and validated once.

    Side 0 is the first factor and side 1 the second.  ``marginal(side, u)``
    sums the table over the other side's first test, and
    ``conditional(side, u)`` is the other side's weight given outcome u."""

    def __init__(self, m: TestSpace, n: TestSpace, omega):
        table = {}
        for p in iproduct(m.outcomes, n.outcomes):
            if p not in omega:
                raise InputError(f"joint weight missing pair {p!r}")
            table[p] = Fraction(omega[p])
        if not is_probability_weight(product_testspace(m, n), table):
            raise InputError("joint weight is not a probability weight on the product")
        self.factors = (m, n)
        self.table = table
        self.nonsignalling = all(sum(table[p] for p in lhs) == sum(table[p] for p in rhs)
                                 for lhs, rhs in _ns_rows(m, n))

    def marginal(self, side, u) -> Fraction:
        return sum(self.table[_pair(side, u, v)] for v in self.factors[1 - side].tests[0])

    def conditional(self, side, u) -> dict:
        if not self.nonsignalling:
            raise InputError("conditionals require a non-signalling weight")
        w = self.marginal(side, u)
        if w == 0:
            raise InputError(f"conditional on {u!r} is undefined (marginal zero)")
        return {v: self.table[_pair(side, u, v)] / w for v in self.factors[1 - side].outcomes}

    def defined_conditionals(self, side):
        """The conditionals on each outcome of ``side`` with a nonzero marginal."""
        for u in self.factors[side].outcomes:
            if self.marginal(side, u) != 0:
                yield self.conditional(side, u)

    def in_state_hulls(self, model_a: Model, model_b: Model) -> bool:
        """Every defined conditional lies in the hull of the other model's states."""
        if not self.nonsignalling:
            raise InputError("joint states must be non-signalling")
        models = (model_a, model_b)
        for side in (0, 1):
            other = models[1 - side]
            order = list(other.testspace.outcomes)
            pts = [tuple(s[v] for v in order) for s in other.states]
            for cond in self.defined_conditionals(side):
                ok, _ = hull_membership(pts, tuple(cond[v] for v in order))
                if not ok:
                    return False
        return True


def is_nonsignalling(m: TestSpace, n: TestSpace, omega) -> bool:
    """Marginals independent of the partner's test choice, exactly."""
    return JointWeight(m, n, omega).nonsignalling


def conditionals(m: TestSpace, n: TestSpace, omega, x) -> dict:
    """The weight on the second factor conditioned on outcome x of the first."""
    return JointWeight(m, n, omega).conditional(0, x)


def is_joint_state(model_a: Model, model_b: Model, omega) -> bool:
    """Every defined conditional lies in the hull of the factor model's states."""
    jw = JointWeight(model_a.testspace, model_b.testspace, omega)
    return jw.in_state_hulls(model_a, model_b)


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
    jw = JointWeight(model_a.testspace, model_b.testspace, omega)
    if not jw.in_state_hulls(model_a, model_b):
        raise InputError("separability applies to joint states")
    points = [tuple(sa[x] * sb[y] for (x, y) in jw.table)
              for sa in model_a.states for sb in model_b.states]
    return hull_membership(points, tuple(jw.table.values()))


def check_separability_certificate(witness) -> bool:
    prob, farkas = witness
    return verify_farkas(prob, farkas)


def min_cone_contains(a: OrderUnitSpace, b: OrderUnitSpace, t) -> bool:
    """t is a nonnegative combination of products of factor cone rays."""
    t = vec(t)
    if len(t) != a.dim * b.dim:
        raise InputError("tensor has the wrong length")
    return in_cone(_min_generators(a, b), t)


@lru_cache(maxsize=None)
def _min_generators(a: OrderUnitSpace, b: OrderUnitSpace) -> tuple:
    """Products of the factor cone rays, which generate the minimal tensor cone."""
    return tuple(tensor_vec(g, h) for g in a.cone_generators for h in b.cone_generators)


def max_cone_contains(a: OrderUnitSpace, b: OrderUnitSpace, t) -> bool:
    """(f x g)(t) = f.T.g >= 0 for all pairs of stored factor facets f, g.

    T is t as an a.dim x b.dim matrix, scaled once to a primitive int tensor."""
    t = vec(t)
    if len(t) != a.dim * b.dim:
        raise InputError("tensor has the wrong length")
    t = _int_ray(t)
    columns = [t[j::b.dim] for j in range(b.dim)]
    for f in a.facets:
        ft = [sum(map(mul, f, col)) for col in columns]
        if any(sum(map(mul, g, ft)) < 0 for g in b.facets):
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
    target = OrderUnitSpace(a.dim * b.dim, _min_generators(a, b), tensor_vec(a.unit, b.unit))
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
    ts = (mm.frag_a.testspace, mm.frag_b.testspace)
    spaces = (rule.a, rule.b)
    for gamma in state_polytope_vertices(rule.target):
        jw = JointWeight(*ts, pullback_joint_weight(mm, gamma))
        if not jw.nonsignalling:
            return False
        for side in (0, 1):
            for cond in jw.defined_conditionals(side):
                constraints = [(e, cond[(v, e)]) for (v, e) in ts[1 - side].outcomes]
                if extend_to_state(spaces[1 - side], constraints) is None:
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
    for lhs, rhs in _ns_rows(m, n):
        row = [_ZERO] * npairs
        for p in lhs:
            row[pos[p]] += 1
        for p in rhs:
            row[pos[p]] -= 1
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
