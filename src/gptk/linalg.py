"""Exact rational linear algebra on tuples of Fractions.

Vectors are tuples of ``Fraction``; matrices are sequences of row vectors.
Floats are rejected at the boundary: every quantity in this package is an
exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce to Fraction; binary floats are refused to preserve exactness."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; use Fraction, int or 'p/q' strings")
    return Fraction(x)


# Vectors are built as tuple([...]), not tuple(<generator>): a tuple built from a
# list is allocated at its final size, so a freed vector returns to the free
# list that the next vector of that size draws from.  tuple(<generator>)
# allocates ten slots and shrinks, so its freed tuples pile up, unused, in the
# interpreter's per-size free lists.
def vec(xs) -> Vec:
    return tuple([frac(x) for x in xs])


def zeros(n: int) -> Vec:
    return (_ZERO,) * n


def basis_vec(n: int, i: int) -> Vec:
    return tuple([_ONE if j == i else _ZERO for j in range(n)])


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple([x + y for x, y in zip(a, b, strict=True)])


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple([x - y for x, y in zip(a, b, strict=True)])


def vscale(c, a: Vec) -> Vec:
    c = frac(c)
    return tuple([c * x for x in a])


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), _ZERO)


def vsum(vectors, n: int | None = None) -> Vec:
    acc = None
    for v in vectors:
        acc = v if acc is None else vadd(acc, v)
    if acc is None:
        if n is None:
            raise ValueError("empty sum needs an explicit dimension")
        return zeros(n)
    return acc


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def tensor_vec(a: Vec, b: Vec) -> Vec:
    """Kronecker product; index (i, j) flattens to i*len(b) + j."""
    return tuple([x * y for x in a for y in b])


def mat_vec(rows, v: Vec) -> Vec:
    return tuple(vdot(tuple(r), v) for r in rows)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), _ZERO) for col in bt) for row in a)


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [list(map(frac, r)) for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def rank(rows) -> int:
    return len(rref(rows)[0])


def solve_linear(rows, rhs) -> Vec | None:
    """One solution of A x = rhs, or None if inconsistent."""
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [list(map(frac, r)) + [frac(b)] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [_ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:  # pivot in the rhs column: inconsistent (caught above)
            return None
        x[p] = row[-1]
    return tuple(x)


def nullspace(rows, ncols: int) -> list[Vec]:
    """Basis of {x : A x = 0} for A with ncols columns."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = _ONE
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def invert(rows) -> tuple | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(map(frac, r)) + [_ONE if j == i else _ZERO for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if len(red) != n or any(p != i for i, p in enumerate(pivots)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def primitive(v: Vec) -> Vec:
    """Scale by a positive rational so entries become coprime integers.

    Preserves direction (the scale factor is positive), so this is the
    canonical representative of a ray.
    """
    if is_zero_vec(v):
        return zeros(len(v))
    denom = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (denom // x.denominator) for x in v]
    g = gcd(*(abs(i) for i in ints))
    return tuple(Fraction(i // g) for i in ints)
