"""Positive maps between order-unit spaces, and finite Markov kernels.

A process is a positive linear map with Phi(unit) below the target unit; a
channel preserves the unit exactly.  Any nonzero process restricts to a
channel into the sub-space generated by [0, Phi(unit)], and any channel
induces a test-space morphism of observable-graph fragments by acting on
the effect coordinate.

Markov kernels are kept at finite size: row-stochastic rational matrices.
Their duals act on function spaces (coordinate spaces ordered by the
orthant, unit the all-ones vector), and composition is contravariant under
dualization, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .linalg import basis_vec, is_zero_vec, mat_mul, mat_vec, vec
from .modj import Catalog, Observable, build_modj, observable_graph
from .ous import (
    OrderUnitSpace,
    cone_contains,
    from_ambient,
    sub_ous,
)
from .systems import classical
from .testspace import canon_key
from .vweight import ValuedWeight


@dataclass(frozen=True, eq=False)
class LinearMap:
    domain: OrderUnitSpace
    codomain: OrderUnitSpace
    matrix: tuple  # codomain.dim rows x domain.dim columns

    def __post_init__(self):
        rows = tuple(vec(r) for r in self.matrix)
        if len(rows) != self.codomain.dim or any(len(r) != self.domain.dim for r in rows):
            raise InputError("matrix shape does not match the two spaces")
        object.__setattr__(self, "matrix", rows)

    def __call__(self, v):
        v = vec(v)
        if len(v) != self.domain.dim:
            raise InputError("vector dimension mismatch")
        return mat_vec(self.matrix, v)


def identity_map(space: OrderUnitSpace) -> LinearMap:
    return LinearMap(space, space, tuple(basis_vec(space.dim, i) for i in range(space.dim)))


def compose_linear(after: LinearMap, before: LinearMap) -> LinearMap:
    if after.domain != before.codomain:
        raise InputError("maps do not compose")
    return LinearMap(before.domain, after.codomain, mat_mul(after.matrix, before.matrix))


def _positive(phi: LinearMap) -> bool:
    return all(cone_contains(phi.codomain, phi(g)) for g in phi.domain.cone_generators)


def is_process(phi: LinearMap) -> bool:
    """Positive with Phi(unit) <= unit."""
    if not _positive(phi):
        return False
    gap = vec(u - v for u, v in zip(phi.codomain.unit, phi(phi.domain.unit)))
    return cone_contains(phi.codomain, gap)


def is_channel(phi: LinearMap) -> bool:
    """Positive and unit-preserving."""
    return _positive(phi) and phi(phi.domain.unit) == phi.codomain.unit


def restrict_to_sub_ous(phi: LinearMap) -> LinearMap:
    """Re-express a process as a channel into the sub-space of its unit image."""
    if not is_process(phi):
        raise InputError("restriction applies to processes")
    v = phi(phi.domain.unit)
    if is_zero_vec(v):
        raise InputError("process annihilates the unit; range is degenerate")
    sub = sub_ous(phi.codomain, v)
    cols = [from_ambient(sub, phi(basis_vec(phi.domain.dim, j)))
            for j in range(phi.domain.dim)]
    rows = tuple(tuple(col[i] for col in cols) for i in range(sub.dim))
    return LinearMap(phi.domain, sub, rows)


def compose_valued_weight(phi: LinearMap, f: ValuedWeight) -> ValuedWeight:
    """The weight x -> Phi(F(x)), valued in the sub-space of Phi(unit)."""
    if f.space != phi.domain:
        raise InputError("valued weight lives over a different space")
    restricted = restrict_to_sub_ous(phi)
    values = {x: restricted(v) for x, v in f.values.items()}
    return ValuedWeight(restricted.codomain, f.testspace, values)


@dataclass(eq=False)
class InducedMorphism:
    outcome_map: dict
    image_catalog: Catalog
    image: object  # ModJModel over the codomain fragment
    test_preserving: bool
    excluded: tuple  # outcomes (x, a) with Phi(a) = 0, reported not dropped silently


def induced_morphism(phi: LinearMap, catalog: Catalog) -> InducedMorphism:
    """(x, a) -> (x, Phi(a)) on the graph fragment of the catalog.

    Image observables keep their source indices.  When Phi kills some
    catalog effect the image observable is built over the support indices
    only and the excluded outcomes are reported: observables exclude zero.
    """
    if not is_channel(phi):
        raise InputError("induced morphisms require a channel")
    if catalog.space != phi.domain:
        raise InputError("catalog is over a different space")
    outcome_map = {}
    excluded = []
    image_obs = []
    for f in catalog.observables:
        values = {i: phi(a) for i, a in f.assignment.items()}
        support = {i: v for i, v in values.items() if not is_zero_vec(v)}
        for i in f.index_set:
            if i in support:
                outcome_map[(i, f.assignment[i])] = (i, values[i])
            else:
                excluded.append((i, f.assignment[i]))
        image_obs.append(Observable(phi.codomain, tuple(support.keys()), support))
    image_catalog = Catalog(phi.codomain, tuple(image_obs))
    image = build_modj(phi.codomain, image_catalog)
    image_tests = set(image.testspace.tests)
    ok = True
    for f in catalog.observables:
        g = observable_graph(f)
        mapped = frozenset(outcome_map[o] for o in g if o in outcome_map)
        if mapped not in image_tests:
            ok = False
        if len({i for (i, _) in mapped}) != len(mapped):
            ok = False  # pragma: no cover - indices are preserved verbatim
    excluded.sort(key=canon_key)
    return InducedMorphism(outcome_map, image_catalog, image, ok, tuple(excluded))


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    matrix: tuple

    def __post_init__(self):
        rows = tuple(vec(r) for r in self.matrix)
        if not rows:
            raise InputError("kernel needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise InputError("kernel rows must share a positive length")
        for r in rows:
            if any(x < 0 for x in r):
                raise InputError("kernel entries must be nonnegative")
            if sum(r) != 1:
                raise InputError("kernel rows must sum to one")
        object.__setattr__(self, "matrix", rows)

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0])


def markov_compose(j: MarkovKernel, k: MarkovKernel) -> MarkovKernel:
    """j after k: (j o k)(s, u) = sum_t k(s, t) j(t, u)."""
    if k.cols != j.rows:
        raise InputError("kernel shapes do not compose")
    return MarkovKernel(mat_mul(k.matrix, j.matrix))


def markov_dual(k: MarkovKernel) -> LinearMap:
    """g -> (s -> sum_t k(s,t) g(t)), a channel between function spaces."""
    return LinearMap(classical(k.cols), classical(k.rows), k.matrix)
