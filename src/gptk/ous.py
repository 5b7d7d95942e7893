"""Finite-dimensional order-unit spaces with polyhedral cones.

A space is given by its dimension, a generating set of cone rays and an
order unit.  Construction validates the whole package contract: the cone is
pointed and spanning, the unit lies in the cone and dominates every basis
direction.  States are functionals in dual coordinates, effects are vectors
between 0 and the unit; both are plain tuples of Fractions.

Validation computes the cone's facets by one double-description pass and
stores them on the space as primitive ``int`` tuples, ``space.facets``.  By
Minkowski-Weyl the cone is exactly where every facet is nonnegative, so
validation, cone membership, effects and the order-unit test are sign checks:
the query vector is scaled once to a primitive integer vector and compared
against the stored facets by ``int`` dot products, with no Fraction per facet
and no hashing of the space.  ``dual_rays`` and ``state_polytope_vertices``
are the Fraction views of the same facets.  Both remain ``lru_cache``s keyed
by the space: validation reaches its facets through ``dual_rays``, so equal
spaces share one double-description pass, and the benchmark reads and clears
the two caches by name until it counts facet computations another way.

Sub-spaces built from an effect interval carry ``ambient_basis``, the row
basis embedding their coordinates back into the parent space.  Closedness of
these polyhedral cones is what makes every order unit Archimedean here; that
is a property of the representation, not something a finite test can probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .errors import InputError, StructureError
from .linalg import (
    Vec,
    is_zero_vec,
    rref,
    vdot,
    vec,
    vsub,
    vsum,
)
from .polyhedra import _independent_subset, _int_ray, extreme_rays, in_cone, polytope_vertices


@dataclass(frozen=True)
class OrderUnitSpace:
    dim: int
    cone_generators: tuple
    unit: Vec
    ambient_basis: tuple | None = None
    # The facet normals as primitive int tuples, set by validation.  Equal
    # spaces have equal facets, so they take no part in equality or hashing.
    facets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cone_generators",
                           tuple(vec(g) for g in self.cone_generators))
        object.__setattr__(self, "unit", vec(self.unit))
        if self.ambient_basis is not None:
            object.__setattr__(self, "ambient_basis",
                               tuple(vec(b) for b in self.ambient_basis))
        _validate_space(self)

    def __repr__(self):
        return f"OrderUnitSpace(dim={self.dim}, generators={len(self.cone_generators)})"


def _validate_space(space: OrderUnitSpace):
    d = space.dim
    if d < 1:
        raise InputError("dimension must be positive")
    if not space.cone_generators:
        raise InputError("cone needs at least one generator")
    for g in space.cone_generators:
        if len(g) != d:
            raise InputError("generator dimension mismatch")
        if is_zero_vec(g):
            raise InputError("zero vector is not a cone ray")
    if len(space.unit) != d:
        raise InputError("unit dimension mismatch")
    if _independent_subset([_int_ray(g) for g in space.cone_generators], d) is None:
        raise StructureError("cone generators do not span the space")
    # The facets exist only for spanning generators; the cone is pointed iff
    # they span the dual space, and the unit is interior iff no facet vanishes
    # on it.
    facets = tuple([tuple([x.numerator for x in f]) for f in dual_rays(space)])
    if _independent_subset(facets, d) is None:
        raise StructureError("cone is not pointed")
    u = _int_ray(space.unit)
    values = [sum(map(mul, f, u)) for f in facets]
    if any(x < 0 for x in values):
        raise StructureError("unit does not lie in the cone")
    if any(x == 0 for x in values):
        raise StructureError("unit is not an order unit")
    object.__setattr__(space, "facets", facets)


def space(generators, unit, dim=None) -> OrderUnitSpace:
    gens = tuple(vec(g) for g in generators)
    u = vec(unit)
    return OrderUnitSpace(dim if dim is not None else len(u), gens, u)


def _check_dim(space: OrderUnitSpace, v) -> Vec:
    v = vec(v)
    if len(v) != space.dim:
        raise InputError(f"vector of length {len(v)} in a dim-{space.dim} space")
    return v


def cone_contains(space: OrderUnitSpace, v) -> bool:
    """True iff every stored facet of the cone is nonnegative on v."""
    w = _int_ray(_check_dim(space, v))
    return all(sum(map(mul, f, w)) >= 0 for f in space.facets)


def is_effect(space: OrderUnitSpace, v) -> bool:
    v = _check_dim(space, v)
    return cone_contains(space, v) and cone_contains(space, vsub(space.unit, v))


def is_state(space: OrderUnitSpace, f) -> bool:
    f = _check_dim(space, f)
    if any(vdot(f, g) < 0 for g in space.cone_generators):
        return False
    return vdot(f, space.unit) == 1


@lru_cache(maxsize=None)
def dual_rays(space: OrderUnitSpace) -> tuple:
    """Extreme rays of {f : f(g) >= 0 on all cone generators}.

    These are the facet normals of the cone, i.e. its H-representation, as
    Fractions; ``space.facets`` holds the same rays as ints."""
    return tuple(extreme_rays(space.cone_generators, space.dim))


@lru_cache(maxsize=None)
def _state_vertices(space: OrderUnitSpace) -> tuple:
    verts = []
    for f in space.facets:
        fu = vdot(f, space.unit)
        verts.append(tuple([x / fu for x in f]))
    return tuple(sorted(verts))


def state_polytope_vertices(space: OrderUnitSpace) -> list:
    """The extreme points of {f : f >= 0 on the cone, f(unit) = 1}.

    These are the stored facets, each scaled to take the value 1 on the unit."""
    return list(_state_vertices(space))


def is_order_unit(space: OrderUnitSpace, v) -> bool:
    """True iff v is interior to the cone: every stored facet is positive on v.

    Equivalently, each basis direction e_i satisfies -t v <= e_i <= t v for
    some t > 0."""
    w = _int_ray(_check_dim(space, v))
    return all(sum(map(mul, f, w)) > 0 for f in space.facets)


def interval_vertices(space: OrderUnitSpace, v) -> list:
    """Vertices of the order interval [0, v] = {x : x >= 0 and v - x >= 0}."""
    v = _check_dim(space, v)
    ineqs = [(f, 0) for f in space.facets]
    ineqs += [(tuple([-x for x in f]), -vdot(f, v)) for f in space.facets]
    return polytope_vertices(ineqs, [], space.dim)


def sub_ous(space: OrderUnitSpace, v) -> OrderUnitSpace:
    """The sub-order-unit space spanned by [0, v], with order unit v.

    Cone generators are the nonzero vertices of [0, v] pruned to extreme
    rays; coordinates are taken relative to the reduced row-echelon basis of
    their span, which is stored as ``ambient_basis`` on the result.
    """
    v = _check_dim(space, v)
    if is_zero_vec(v):
        raise InputError("sub-space of the zero effect is empty")
    if not is_effect(space, v):
        raise InputError("sub-space base must be an effect")
    verts = [w for w in interval_vertices(space, v) if not is_zero_vec(w)]
    gens = [g for i, g in enumerate(verts)
            if not in_cone(verts[:i] + verts[i + 1:], g)]
    basis, _ = rref(gens)
    coords = [_coords_in_basis(basis, g) for g in gens]
    unit = _coords_in_basis(basis, v)
    return OrderUnitSpace(len(basis), tuple(coords), unit, ambient_basis=basis)


def _coords_in_basis(basis, x) -> Vec:
    # basis rows are in RREF, so the coefficient on row k is just the value
    # of x at that row's pivot column; verify the residual to catch inputs
    # outside the span.
    pivots = [next(i for i, e in enumerate(row) if e != 0) for row in basis]
    coeffs = tuple(x[p] for p in pivots)
    recon = vsum((tuple(c * e for e in row) for c, row in zip(coeffs, basis)), len(x))
    if recon != tuple(x):
        raise InputError("vector lies outside the sub-space span")
    return coeffs


def to_ambient(space: OrderUnitSpace, x) -> Vec:
    """Embed sub-space coordinates back into the parent space."""
    if space.ambient_basis is None:
        return vec(x)
    x = _check_dim(space, x)
    return vsum((tuple(c * e for e in row) for c, row in zip(x, space.ambient_basis)),
                len(space.ambient_basis[0]))


def from_ambient(space: OrderUnitSpace, x) -> Vec:
    """Express an ambient vector in sub-space coordinates (must lie in the span)."""
    if space.ambient_basis is None:
        return _check_dim(space, x)
    return _coords_in_basis(space.ambient_basis, vec(x))
