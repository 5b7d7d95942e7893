"""Exact oracles that share no code with gptk.

The benchmark checks every answer gptk gives against these.  They use plain
integer and ``Fraction`` arithmetic and brute-force enumeration: no simplex,
no double-description pass, no gptk import.  Speed is not their job; each is
only run on the small instances the workloads generate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def tensor(a, b):
    """Kronecker product; index (i, j) flattens to i*len(b) + j."""
    return tuple(x * y for x in a for y in b)


def primitive(v):
    """Positive multiple of v with coprime integer entries (the ray's canonical form)."""
    v = [Fraction(x) for x in v]
    if all(x == 0 for x in v):
        return tuple(v)
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*(abs(i) for i in ints))
    return tuple(Fraction(i // g) for i in ints)


def _int_row(v):
    """Positive multiple of a rational vector as coprime Python ints."""
    return [int(x) for x in primitive(v)]


class Echelon:
    """Integer rows in echelon form, each with zeros at the earlier rows' pivots.

    Rows are scaled to coprime integers, so ``add`` is fraction-free; it
    reports whether the new row was independent of the rows already kept.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []      # (pivot column, int row)

    def copy(self):
        e = Echelon(self.ncols)
        e.rows = list(self.rows)
        return e

    def add(self, v):
        v = list(v)
        for p, row in self.rows:
            c = v[p]
            if c:
                a = row[p]
                v = [a * x - c * y for x, y in zip(v, row)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        g = gcd(*v)
        self.rows.append((p, [x // g for x in v]))
        return True

    def nullspace(self):
        """Basis of the rational vectors orthogonal to every row."""
        pivots = [p for p, _ in self.rows]
        basis = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            x = [ZERO] * self.ncols
            x[f] = ONE
            for p, row in reversed(self.rows):
                s = sum((Fraction(row[j]) * x[j] for j in range(self.ncols) if j != p and x[j]), ZERO)
                x[p] = -s / row[p]
            basis.append(tuple(x))
        return basis


def rank(rows, ncols):
    e = Echelon(ncols)
    return sum(1 for r in rows if e.add(_int_row(r)))


def extreme_rays(normals, dim):
    """Extreme rays of the pointed cone {x : a.x >= 0 for a in normals}.

    Brute force over independent (dim-1)-subsets of the normals: each gives
    one candidate line, kept if one of its two directions satisfies every
    inequality.  Subsets inside the zero set of a ray already found are
    skipped, since they can only give that ray again.

    Given a cone's generators as the normals, the rays are the cone's facet
    normals: its dual rays.
    """
    normals = [_int_row(a) for a in normals]
    m = len(normals)
    if dim == 1:
        return sorted({(s,) for s in (ONE, -ONE) if all(a[0] * s >= 0 for a in normals)})
    found = {}      # ray -> bitmask of the normals it makes tight

    def consider(ech):
        [n] = ech.nullspace()
        n = _int_row(n)
        vals = [sum(x * y for x, y in zip(a, n)) for a in normals]
        if all(v >= 0 for v in vals):
            ray = tuple(Fraction(x) for x in n)
        elif all(v <= 0 for v in vals):
            ray = tuple(Fraction(-x) for x in n)
        else:
            return
        if ray not in found:
            found[ray] = sum(1 << i for i, v in enumerate(vals) if v == 0)

    def walk(start, ech, mask, size):
        if size == dim - 1:
            if not any(mask & ~z == 0 for z in found.values()):
                consider(ech)
            return
        for i in range(start, m - (dim - 1 - size) + 1):
            nxt = ech.copy()
            if nxt.add(normals[i]):
                walk(i + 1, nxt, mask | (1 << i), size + 1)

    walk(0, Echelon(dim), 0, 0)
    return sorted(found)


def in_cone_by_facets(facets, v):
    return all(dot(f, v) >= 0 for f in facets)


def state_vertices(facets, unit):
    """The state polytope's vertices: facet normals scaled to one on the unit."""
    return sorted(tuple(x / dot(f, unit) for x in f) for f in facets)


def polytope_vertices(ineqs, eqs, dim):
    """Vertices of the bounded polytope {x : a.x >= b, c.x = d}.

    Solves the equalities, parametrizes their solution set, homogenizes, and
    reads vertices off the extreme rays of the homogenized cone.
    """
    # x0 spans the solutions of the homogenized equalities c.x - d*s = 0
    # together with the nullspace basis; pick the member with s = 1.
    aug = Echelon(dim + 1)
    for c, d in eqs:
        aug.add(_int_row(tuple(c) + (-Fraction(d),)))
    sols = aug.nullspace()
    lead = next((v for v in sols if v[dim] != 0), None)
    if lead is None:
        return []       # inconsistent equalities
    x0 = [x / lead[dim] for x in lead[:dim]]
    rows_only = Echelon(dim)
    for c, _ in eqs:
        rows_only.add(_int_row(c))
    basis = rows_only.nullspace()
    k = len(basis)
    if k == 0:
        return [tuple(x0)] if all(dot(a, x0) >= b for a, b in ineqs) else []
    hom = [tuple(dot(a, n) for n in basis) + (dot(a, x0) - Fraction(b),) for a, b in ineqs]
    hom.append((ZERO,) * k + (ONE,))
    verts = set()
    for r in extreme_rays(hom, k + 1):
        t = r[-1]
        if t == 0:
            raise ValueError("polytope is unbounded")
        y = [x / t for x in r[:-1]]
        verts.add(tuple(x0[i] + sum((yj * n[i] for yj, n in zip(y, basis)), ZERO)
                        for i in range(dim)))
    return sorted(verts)


def hull_certificate_ok(points, target, ok, cert):
    """Check a hull-membership answer against the points and target alone.

    A yes must carry convex weights that re-sum to the target.  A no must
    carry a vector y, one entry per coordinate plus one for the weight sum,
    with y.(p, 1) <= 0 for every point and y.(target, 1) > 0: a hyperplane
    that no convex combination of the points can cross.
    """
    dim = len(target)
    if ok:
        weights = cert
        if len(weights) != len(points) or any(w < 0 for w in weights) or sum(weights) != 1:
            return False
        return all(sum((w * p[c] for w, p in zip(weights, points)), ZERO) == target[c]
                   for c in range(dim))
    y = cert
    if y is None or len(y) != dim + 1:
        return False
    if any(dot(y[:dim], p) + y[dim] > 0 for p in points):
        return False
    return dot(y[:dim], target) + y[dim] > 0
