"""Observable graphs and finite fragments of the Mod construction.

An observable assigns nonzero effects summing to the unit to a finite index
set; its graph is the set of (index, effect) pairs and serves as the test
modelling that experiment, so repeated effects at distinct indices stay
distinct outcomes.  A catalog is a finite family of observables over one
space; the induced model has the graphs as tests and the lifted states
(index, a) -> phi(a) as its state generators.

The full object over all index sets is infinite; this module only ever
manipulates explicitly supplied finite catalogs, as fragments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InputError, ResourceLimitError, StructureError
from .lp import LinProb, EQ
from .linalg import Vec, is_zero_vec, vdot, vec, vsub, vsum
from .ous import OrderUnitSpace, is_effect, state_polytope_vertices
from .testspace import (
    TestSpace,
    canon_key,
    event_cap,
    make_testspace,
    set_partitions,
    weight_equality_bound,
    weight_polytope_vertices,
)
from .vweight import Model


@dataclass(frozen=True, eq=False)
class Observable:
    space: OrderUnitSpace
    index_set: tuple
    assignment: dict

    def __post_init__(self):
        idx = tuple(sorted(set(self.index_set), key=canon_key))
        if len(idx) != len(self.index_set):
            raise InputError("index set has duplicates")
        vals = {}
        total = None
        for i in idx:
            if i not in self.assignment:
                raise InputError(f"observable missing index {i!r}")
            v = vec(self.assignment[i])
            if is_zero_vec(v):
                raise InputError("observables exclude the zero effect")
            if not is_effect(self.space, v):
                raise InputError(f"value at index {i!r} is not an effect")
            vals[i] = v
            total = v if total is None else vsum([total, v])
        if total != self.space.unit:
            raise InputError("observable values must sum to the unit")
        object.__setattr__(self, "index_set", idx)
        object.__setattr__(self, "assignment", vals)


def observable(space, assignment: dict) -> Observable:
    return Observable(space, tuple(assignment.keys()), dict(assignment))


def observable_graph(f: Observable) -> frozenset:
    """The pair set {(i, f(i))}; one outcome per index."""
    return frozenset((i, f.assignment[i]) for i in f.index_set)


@dataclass(frozen=True, eq=False)
class Catalog:
    space: OrderUnitSpace
    observables: tuple

    def __post_init__(self):
        if not self.observables:
            raise InputError("catalog needs at least one observable")
        for f in self.observables:
            if f.space != self.space:
                raise InputError("catalog observables live over different spaces")

    def graphs(self):
        return sorted({observable_graph(f) for f in self.observables},
                      key=lambda g: sorted(canon_key(x) for x in g))


@dataclass(eq=False)
class ModJModel:
    model: Model
    source: Catalog
    space: OrderUnitSpace

    @property
    def testspace(self) -> TestSpace:
        return self.model.testspace


def build_modj(space: OrderUnitSpace, catalog: Catalog) -> ModJModel:
    """Graphs of the catalog as tests; state-polytope vertices lifted as states."""
    if catalog.space != space:
        raise InputError("catalog is over a different space")
    graphs = catalog.graphs()
    for a, b in combinations(graphs, 2):
        if a < b or b < a:
            raise StructureError("catalog graphs nest; fragment is not a test space")
    ts = make_testspace(graphs)
    states = []
    for phi in state_polytope_vertices(space):
        states.append({(i, a): vdot(vec(phi), a) for (i, a) in ts.outcomes})
    return ModJModel(Model(ts, tuple(states)), catalog, space)


def decompositions_fragment(space: OrderUnitSpace, effect_list) -> TestSpace:
    """Subsets of the supplied effects summing exactly to the unit.

    Outcomes are the effects themselves (no index component): the finite
    fragment of the decompositions-of-the-unit test space.  Repetition is
    impossible here by set semantics; that is the point of the comparison
    with observable graphs.
    """
    effects = []
    seen = set()
    for e in effect_list:
        v = vec(e)
        if v in seen:
            raise InputError("effect list has duplicates")
        seen.add(v)
        if is_zero_vec(v) or not is_effect(space, v):
            raise InputError("list entries must be nonzero effects")
        effects.append(v)
    if 2 ** len(effects) > event_cap():
        raise ResourceLimitError("subset enumeration exceeds the cap")
    tests = []
    order = sorted(effects)
    for r in range(1, len(order) + 1):
        for combo in combinations(order, r):
            if vsum(combo) == space.unit:
                tests.append(frozenset(combo))
    if not tests:
        raise InputError("no subset of the effect list sums to the unit")
    return make_testspace(tests)


def extend_to_state(space: OrderUnitSpace, constraints) -> Vec | None:
    """A state f with f(a_k) = c_k for all given (a_k, c_k), or None.

    Finite-scale surrogate for the extension theorem: exact LP feasibility
    of positivity on the cone generators, f(unit) = 1 and the constraints.
    """
    prob = LinProb()
    for i in range(space.dim):
        prob.var(("f", i), nonneg=False)
    for g in space.cone_generators:
        prob.add({("f", i): g[i] for i in range(space.dim)}, ">=", 0)
    prob.add({("f", i): space.unit[i] for i in range(space.dim)}, EQ, 1)
    for a, c in constraints:
        a = vec(a)
        if len(a) != space.dim:
            raise InputError("constraint vector dimension mismatch")
        prob.add({("f", i): a[i] for i in range(space.dim)}, EQ, Fraction(c))
    sol = prob.feasible()
    if sol is None:
        return None
    return tuple([sol[("f", i)] for i in range(space.dim)])


@dataclass(frozen=True)
class Lemma1Report:
    closed: bool
    missing: tuple
    max_gap: Fraction | None
    extension_ok: bool | None


def lemma1_check(space: OrderUnitSpace, catalog: Catalog) -> Lemma1Report:
    """Audit the hypothesis and conclusion of the weight-extension lemma.

    (i) For every pair of outcomes (i,a), (j,a) with a != unit, the catalog
    must contain the binary completions {(i,a),(r,unit-a)} and
    {(j,a),(r,unit-a)} for a common index r outside {i,j}.  (ii) If closed,
    the LP bound on |beta(i,a) - beta(j,a)| over the weight polytope must be
    zero.  (iii) Every weight-polytope vertex must extend to a state.
    """
    mod = build_modj(space, catalog)
    ts = mod.testspace
    graph_set = set(ts.tests)
    indices = sorted({i for (i, _) in ts.outcomes}, key=canon_key)
    by_effect = {}
    for (i, a) in ts.outcomes:
        by_effect.setdefault(a, []).append(i)

    missing = []
    pairs = []
    for a, idxs in sorted(by_effect.items()):
        idxs = sorted(set(idxs), key=canon_key)
        for i, j in combinations(idxs, 2):
            pairs.append((i, j, a))
            if a == space.unit:
                continue
            aprime = vsub(space.unit, a)
            found = any(
                r not in (i, j)
                and frozenset({(i, a), (r, aprime)}) in graph_set
                and frozenset({(j, a), (r, aprime)}) in graph_set
                for r in indices)
            if not found:
                missing.append((i, j, a))
    if missing:
        return Lemma1Report(False, tuple(missing), None, None)

    gap = Fraction(0)
    for i, j, a in pairs:
        gap = max(gap, weight_equality_bound(ts, (i, a), (j, a)))
        gap = max(gap, weight_equality_bound(ts, (j, a), (i, a)))

    extension_ok = True
    for beta in weight_polytope_vertices(ts):
        constraints = [(a, beta[(i, a)]) for (i, a) in ts.outcomes]
        if extend_to_state(space, constraints) is None:
            extension_ok = False
            break
    return Lemma1Report(True, (), gap, extension_ok)


def completion_observables(space: OrderUnitSpace, catalog: Catalog) -> list:
    """Binary observables that would close the catalog for the lemma audit.

    Fresh indices are deterministic: "r#k" with the least unused k."""
    report = lemma1_check(space, catalog)
    if report.closed:
        return []
    mod = build_modj(space, catalog)
    used = {i for (i, _) in mod.testspace.outcomes}
    k = 0
    while f"r#{k}" in used:
        k += 1
    fresh = f"r#{k}"
    out = []
    for i, j, a in report.missing:
        aprime = vsub(space.unit, a)
        out.append(observable(space, {i: a, fresh: aprime}))
        out.append(observable(space, {j: a, fresh: aprime}))
    return out


def boolean_testspace(n: int) -> TestSpace:
    """Partitions of {1..n}: outcomes are nonempty subsets, tests partitions."""
    if n < 1:
        raise InputError("n must be positive")
    count = 0
    cap = event_cap()
    tests = []
    for part in set_partitions(range(1, n + 1)):
        count += 1
        if count > cap:
            raise ResourceLimitError("partition enumeration exceeds the cap")
        tests.append(frozenset(frozenset(block) for block in part))
    return make_testspace(tests)
