"""Exact-rational linear programming.

A two-phase primal simplex with Bland's anti-cycling rule, run on integer
rows: each tableau row is a list of ``int`` numerators over one positive
``int`` denominator, and a pivot is a fraction-free row update followed by
one gcd reduction (Edmonds 1967; Bareiss 1968).  ``Fraction`` appears only
at the boundary: each input row is scaled by the lcm of its denominators,
and the assignment, the optimal value and the Farkas certificate are built
as Fractions at the end.  The low-level entry point works on the standard
form

    max c.x   subject to   A x = b,  x >= 0,

and reports an exact Farkas certificate on infeasibility.  ``LinProb`` is a
small named-variable builder on top of it (free variables are split, slack
columns are added for inequality rows) used by every membership and
feasibility check in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .errors import ConsistencyError, InputError
from .linalg import frac

_ZERO = Fraction(0)
_ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _primitive(row, den):
    """Divide an integer row and its positive denominator by their gcd.

    gcd and lcm are folded with reduce rather than called on *args: an
    argument tuple of 20 items is kept, once freed, in a free list that
    CPython 3.11 never draws from, so one per row would pile up."""
    g = reduce(gcd, row, den)
    if g > 1:
        return [x // g for x in row], den // g
    return row, den


def _pivot(rows, dens, basis, prow, pcol):
    """Pivot on (prow, pcol).  Row i stands for rows[i] / dens[i]; the last
    row is the objective.

    The pivot row becomes itself over its pivot entry.  Every other row r
    with f = r[pcol] != 0 becomes (r * pd - f * p) / (dens[i] * pd), which
    zeroes its pivot column, and is then reduced by its gcd."""
    p = rows[prow]
    if p[pcol] < 0:
        p = [-x for x in p]
    p, pd = _primitive(p, p[pcol])
    rows[prow], dens[prow] = p, pd
    for i, r in enumerate(rows):
        f = r[pcol]
        if f and i != prow:
            rows[i], dens[i] = _primitive([x * pd - f * y for x, y in zip(r, p)], dens[i] * pd)
    basis[prow] = pcol


def _run(rows, dens, basis, enterable):
    """Bland's rule: enter the smallest column with positive reduced cost,
    leave on the minimum ratio with ties broken by smallest basis variable.

    A row's denominator cancels in its ratio rhs / coef, so ratios are
    compared by cross-multiplying the numerators."""
    while True:
        obj = rows[-1]
        enter = next((j for j in range(enterable) if obj[j] > 0), None)
        if enter is None:
            return OPTIMAL
        best_row = None
        for i, bv in enumerate(basis):
            coef = rows[i][enter]
            if coef > 0:
                rhs = rows[i][-1]
                if best_row is not None:
                    # sign of rhs / coef - best_rhs / best_coef
                    d = rhs * best_coef - best_rhs * coef
                    if d > 0 or d == 0 and bv > basis[best_row]:
                        continue
                best_row, best_rhs, best_coef = i, rhs, coef
        if best_row is None:
            return UNBOUNDED
        _pivot(rows, dens, basis, best_row, enter)


def _weighted_sum(rows, dens, weights, width):
    """sum_i weights[i] * rows[i] / dens[i] as integers over one denominator."""
    den = reduce(lcm, dens, 1)
    acc = [0] * width
    for r, d, w in zip(rows, dens, weights):
        if w:
            k = w * (den // d)
            acc = [a + k * x for a, x in zip(acc, r)]
    return acc, den


def solve_standard(a_rows, b, c=None):
    """Solve max c.x over {x >= 0 : A x = b}; c=None means pure feasibility.

    Returns (status, x, value, farkas).  On infeasibility, farkas is a vector
    y (one entry per row of A) with y.A <= 0 componentwise and y.b > 0.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else (len(c) if c else 0)
    width = n + m + 1
    # Row i of [A | I | b], sign-flipped so b_i >= 0, over the lcm of its
    # denominators; its artificial entry equals that denominator.
    rows, dens, signs = [], [], []
    for i in range(m):
        q = [frac(x) for x in a_rows[i]] + [frac(b[i])]
        sign = 1 if q[-1] >= 0 else -1
        den = reduce(lcm, [x.denominator for x in q])
        nums = [sign * x.numerator * (den // x.denominator) for x in q]
        rows.append(nums[:n] + [den if j == i else 0 for j in range(m)] + nums[n:])
        dens.append(den)
        signs.append(sign)
    basis = [n + i for i in range(m)]

    # Phase 1: maximize -sum(artificials); initial reduced costs are the
    # column sums over the original columns, zero on the artificial block.
    obj, den = _weighted_sum(rows, dens, [1] * m, width)
    obj[n:n + m] = [0] * m
    obj, den = _primitive(obj, den)
    rows.append(obj)
    dens.append(den)
    status = _run(rows, dens, basis, n + m)
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
        raise ConsistencyError("phase-1 simplex cannot be unbounded")
    obj, den = rows[-1], dens[-1]
    if obj[-1] != 0:
        farkas = tuple([signs[i] * Fraction(den + obj[n + i], den) for i in range(m)])
        return INFEASIBLE, None, None, farkas

    # Drive artificial variables out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(rows, dens, basis, i, col)
        keep.append(i)
    rows = [rows[i] for i in keep]
    dens = [dens[i] for i in keep]
    basis = [basis[i] for i in keep]

    if c is None:
        return OPTIMAL, _extract(rows, dens, basis, n), _ZERO, None

    # Phase 2 reduced costs c_j - sum_i c_B(i) T[i][j], with c = cn / cd.
    c = [frac(x) for x in c]
    cd = reduce(lcm, [x.denominator for x in c], 1)
    cn = [x.numerator * (cd // x.denominator) for x in c]
    s, den = _weighted_sum(rows, dens, [cn[bv] for bv in basis], width)
    obj, den = _primitive([cn[j] * den - s[j] for j in range(n)] + [0] * m + [-s[-1]], cd * den)
    rows.append(obj)
    dens.append(den)
    status = _run(rows, dens, basis, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None, None
    x = _extract(rows, dens, basis, n)
    return OPTIMAL, x, Fraction(-rows[-1][-1], dens[-1]), None


def _extract(rows, dens, basis, n):
    x = [_ZERO] * n
    for r, d, bv in zip(rows, dens, basis):
        if bv < n:
            x[bv] = Fraction(r[-1], d)
    return tuple(x)


EQ = "=="
GE = ">="
LE = "<="


@dataclass
class LinProb:
    """Named-variable LP builder.

    Variables default to nonnegative; declare ``nonneg=False`` for free
    variables (they are split into positive and negative parts internally).
    """

    _vars: dict = field(default_factory=dict)
    _rows: list = field(default_factory=list)
    certificate: tuple | None = None

    def var(self, name, nonneg=True):
        if name in self._vars:
            if self._vars[name] != nonneg:
                raise InputError(f"variable {name!r} redeclared with a different sign")
        else:
            self._vars[name] = nonneg
        return name

    def add(self, coeffs, rel, rhs):
        if rel not in (EQ, GE, LE):
            raise InputError(f"unknown relation {rel!r}")
        row = {}
        for name, c in coeffs.items():
            c = frac(c)
            if c == 0:
                continue
            if name not in self._vars:
                self._vars[name] = True
            row[name] = c
        self._rows.append((row, rel, frac(rhs)))

    def _build(self, objective):
        columns = {}
        ncols = 0
        for name, nonneg in self._vars.items():
            if nonneg:
                columns[name] = ((ncols, _ONE),)
                ncols += 1
            else:
                columns[name] = ((ncols, _ONE), (ncols + 1, -_ONE))
                ncols += 2
        nslack = sum(1 for _, rel, _ in self._rows if rel != EQ)
        total = ncols + nslack
        a_rows, b = [], []
        slack = ncols
        for row, rel, rhs in self._rows:
            arow = [_ZERO] * total
            for name, c in row.items():
                for col, s in columns[name]:
                    arow[col] = c * s
            if rel == GE:
                arow[slack] = -_ONE
                slack += 1
            elif rel == LE:
                arow[slack] = _ONE
                slack += 1
            a_rows.append(arow)
            b.append(rhs)
        cvec = None
        if objective is not None:
            cvec = [_ZERO] * total
            for name, c in objective.items():
                if name not in columns:
                    raise InputError(f"objective names unknown variable {name!r}")
                for col, s in columns[name]:
                    cvec[col] = frac(c) * s
        return a_rows, b, cvec, columns

    def _assignment(self, x, columns):
        out = {}
        for name, cols in columns.items():
            out[name] = sum((s * x[col] for col, s in cols), _ZERO)
        return out

    def feasible(self):
        """A feasible assignment dict, or None (with ``certificate`` set)."""
        self.certificate = None
        a_rows, b, _, columns = self._build(None)
        status, x, _, farkas = solve_standard(a_rows, b, None)
        if status == INFEASIBLE:
            self.certificate = farkas
            return None
        return self._assignment(x, columns)

    def maximize(self, objective):
        """Returns (status, value, assignment)."""
        self.certificate = None
        a_rows, b, cvec, columns = self._build(objective)
        status, x, value, farkas = solve_standard(a_rows, b, cvec)
        if status == INFEASIBLE:
            self.certificate = farkas
            return INFEASIBLE, None, None
        if status == UNBOUNDED:
            return UNBOUNDED, None, None
        return OPTIMAL, value, self._assignment(x, columns)


def verify_farkas(prob: LinProb, y) -> bool:
    """Check a Farkas certificate against the problem's own rows.

    Conditions: for every nonnegative variable the y-combination of its
    coefficients is <= 0 (== 0 for free variables); y_r >= 0 on '>=' rows and
    y_r <= 0 on '<=' rows; and y.rhs > 0.  Together these refute feasibility.
    """
    if y is None or len(y) != len(prob._rows):
        return False
    for name, nonneg in prob._vars.items():
        s = sum((yr * row.get(name, _ZERO) for yr, (row, _, _) in zip(y, prob._rows)), _ZERO)
        if nonneg and s > 0:
            return False
        if not nonneg and s != 0:
            return False
    for yr, (_, rel, _) in zip(y, prob._rows):
        if rel == GE and yr < 0:
            return False
        if rel == LE and yr > 0:
            return False
    total = sum((yr * rhs for yr, (_, _, rhs) in zip(y, prob._rows)), _ZERO)
    return total > 0
