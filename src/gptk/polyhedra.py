"""Polyhedral conversions: H-representation to extreme rays and vertices.

``extreme_rays`` is an incremental double-description pass over a pointed
cone given by inequality normals, run on primitive integer rays.  Each ray
carries its zero set, the processed normals it lies on, as an int bitset,
and adjacency of rays is the combinatorial test of Fukuda and Prodon
(*Double description method revisited*, 1996): no third ray's zero set
contains the two rays' common zero set.  ``polytope_vertices`` reduces a
bounded H-polytope to a cone by eliminating equality constraints and
homogenizing, then normalizes the rays back to vertices.

Everything is exact; ray outputs are primitive integer vectors and vertex
lists are canonically sorted, so the results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import StructureError
from .lp import LinProb, EQ, GE
from .linalg import (
    basis_vec,
    invert,
    nullspace,
    solve_linear,
    vadd,
    vdot,
    vec,
    vscale,
    zeros,
)


def _int_ray(v) -> tuple:
    """Primitive integer representative of the ray through a rational vector."""
    den = lcm(*[x.denominator for x in v])
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _independent_subset(rows, dim):
    """Indices of the first rows, greedily, that span R^dim; None if they do not.

    One fraction-free elimination pass: each row is reduced against the
    echelon rows kept so far, and kept when something is left."""
    echelon = []  # (pivot column, integer row zero on earlier pivots)
    idx = []
    for i, r in enumerate(rows):
        for c, e in echelon:
            if r[c]:
                r = [e[c] * x - r[c] * y for x, y in zip(r, e)]
        c = next((c for c, x in enumerate(r) if x), None)
        if c is not None:
            g = gcd(*r)
            echelon.append((c, [x // g for x in r]))
            idx.append(i)
            if len(idx) == dim:
                return idx
    return None


def extreme_rays(normals, dim: int) -> list:
    """Extreme rays of the pointed cone {x : a.x >= 0 for a in normals}.

    Raises StructureError when the normals do not have full rank (the cone
    then contains a line and has no extreme-ray description).
    """
    rows = list(dict.fromkeys(r for r in (_int_ray(vec(a)) for a in normals) if any(r)))
    base = _independent_subset(rows, dim)
    if base is None:
        raise StructureError("cone is not pointed (inequality normals do not span)")
    # The start cone is simplicial: ray j lies on every base normal but the
    # j-th.  Bit t of a zero set stands for rows[t].
    inv = invert([rows[i] for i in base])
    in_base = sum(1 << i for i in base)
    rays = {_int_ray([inv[i][j] for i in range(dim)]): in_base & ~(1 << t)
            for j, t in enumerate(base)}
    for t, a in enumerate(rows):
        if in_base >> t & 1:
            continue
        pos, neg, kept = [], [], {}
        for r, z in rays.items():
            v = sum(x * y for x, y in zip(a, r))
            if v > 0:
                pos.append((r, z, v))
                kept[r] = z
            elif v < 0:
                neg.append((r, z, v))
            else:
                kept[r] = z | (1 << t)
        for p, zp, vp in pos:
            for q, zq, vq in neg:
                common = zp & zq
                if common.bit_count() < dim - 2 or any(
                        z & common == common for r, z in rays.items()
                        if r is not p and r is not q):
                    continue
                w = [vp * y - vq * x for x, y in zip(p, q)]
                g = gcd(*w)
                kept[tuple(x // g for x in w)] = common | (1 << t)
        rays = kept
    return [tuple(map(Fraction, r)) for r in sorted(rays)]


def polytope_vertices(ineqs, eqs, dim: int) -> list:
    """Vertices of {x in R^dim : a.x >= b for (a,b) in ineqs, c.x = d for (c,d) in eqs}.

    Returns [] when the polytope is empty and raises StructureError when it
    is unbounded (a recession ray survives homogenization).
    """
    ineqs = [(vec(a), Fraction(b)) for a, b in ineqs]
    eqs = [(vec(c), Fraction(d)) for c, d in eqs]

    prob = LinProb()
    for i in range(dim):
        prob.var(("x", i), nonneg=False)
    for a, b in ineqs:
        prob.add({("x", i): a[i] for i in range(dim)}, GE, b)
    for c, d in eqs:
        prob.add({("x", i): c[i] for i in range(dim)}, EQ, d)
    if prob.feasible() is None:
        return []

    if eqs:
        c_rows = [c for c, _ in eqs]
        x0 = solve_linear(c_rows, [d for _, d in eqs])
        if x0 is None:  # pragma: no cover - feasibility already established
            return []
        basis = nullspace(c_rows, dim)
    else:
        x0 = zeros(dim)
        basis = [basis_vec(dim, i) for i in range(dim)]

    k = len(basis)
    if k == 0:
        return [x0]

    rows = []
    for a, b in ineqs:
        rows.append(tuple(vdot(a, n) for n in basis) + (vdot(a, x0) - b,))
    rows.append(zeros(k) + (Fraction(1),))
    rays = extreme_rays(rows, k + 1)

    verts = []
    for r in rays:
        t = r[-1]
        if t == 0:
            raise StructureError("polytope is unbounded")
        y = [x / t for x in r[:-1]]
        v = x0
        for yi, n in zip(y, basis):
            v = vadd(v, vscale(yi, n))
        verts.append(v)
    return sorted(set(verts))


def _combination_lp(points, target):
    """The LP in weights l_i >= 0 with sum_i l_i * points[i] = target, one row
    per coordinate, and the names of its weights."""
    pts = [vec(p) for p in points]
    weights = [("l", i) for i in range(len(pts))]
    prob = LinProb()
    for w in weights:
        prob.var(w)
    for coord, t in enumerate(vec(target)):
        prob.add({w: p[coord] for w, p in zip(weights, pts)}, EQ, t)
    return prob, weights


def in_cone(generators, v) -> bool:
    """Membership of v in the cone nonnegatively generated by ``generators``."""
    prob, _ = _combination_lp(generators, v)
    return prob.feasible() is not None


def hull_membership(points, target):
    """Membership of ``target`` in the convex hull of ``points``.

    Returns (True, weights) with an exact convex combination, or
    (False, (prob, farkas)) where ``farkas`` refutes membership and can be
    re-verified with :func:`gptk.lp.verify_farkas`.
    """
    prob, weights = _combination_lp(points, target)
    prob.add(dict.fromkeys(weights, 1), EQ, 1)
    sol = prob.feasible()
    if sol is None:
        return False, (prob, prob.certificate)
    return True, tuple([sol[w] for w in weights])
