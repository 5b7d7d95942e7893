from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from gptk import lp
from gptk.composite import max_rule, min_rule
from gptk.linalg import vdot
from gptk.lp import EQ, GE, LE, INFEASIBLE, OPTIMAL, UNBOUNDED, LinProb, solve_standard, verify_farkas
from gptk.modj import extend_to_state
from gptk.polyhedra import hull_membership
from gptk.systems import square_bit

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def test_feasibility_simple():
    status, x, _, _ = solve_standard([[1, 1]], [1], None)
    assert status == OPTIMAL
    assert sum(x) == 1


def test_infeasible_with_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    a = [[1, 1], [1, 1]]
    status, _, _, y = solve_standard(a, [1, 2], None)
    assert status == INFEASIBLE
    cols = list(zip(*a))
    assert all(sum(yi * c for yi, c in zip(y, col)) <= 0 for col in cols)
    assert sum(yi * bi for yi, bi in zip(y, [1, 2])) > 0


def test_simplex_on_assignment_polytope():
    # max over the simplex picks the best coefficient
    prob = LinProb()
    for i in range(4):
        prob.var(i)
    prob.add({i: 1 for i in range(4)}, EQ, 1)
    status, value, sol = prob.maximize({0: 1, 1: 3, 2: F(5, 2), 3: -1})
    assert status == OPTIMAL
    assert value == 3
    assert sol[1] == 1


def test_unbounded_detected():
    prob = LinProb()
    prob.var("x")
    prob.add({"x": 1}, GE, 0)
    status, _, _ = prob.maximize({"x": 1})
    assert status == UNBOUNDED


def test_free_variables_and_le_rows():
    prob = LinProb()
    prob.var("x", nonneg=False)
    prob.add({"x": 1}, LE, -3)
    status, value, sol = prob.maximize({"x": 1})
    assert status == OPTIMAL and value == -3 and sol["x"] == -3


def _beale():
    # Classic Beale-style degeneracy; Bland's rule must terminate.
    prob = LinProb()
    for name in "abcd":
        prob.var(name)
    prob.add({"a": F(1, 4), "b": -8, "c": -1, "d": 9}, LE, 0)
    prob.add({"a": F(1, 2), "b": -12, "c": -F(1, 2), "d": 3}, LE, 0)
    prob.add({"c": 1}, LE, 1)
    return prob.maximize({"a": F(3, 4), "b": -20, "c": F(1, 2), "d": -6})


def test_degenerate_cycling_guard():
    status, value, sol = _beale()
    assert status == OPTIMAL
    assert value == F(5, 4)
    assert sol == {"a": 1, "b": 0, "c": 1, "d": 0}
    assert all(type(q) is F for q in sol.values())


# The pinned results below are the exact answers, and the pivot counts the
# pivots, of the two-phase Bland simplex on a Fraction tableau.  The simplex
# must keep both: the same pivots give the same vertex and certificate.

@cache
def _tensor_target(kind):
    rule = {"min": min_rule, "max": max_rule}[kind]
    return rule(square_bit(), square_bit()).target


# f(a) = c for the product state (1, 1/2, 0) (x) (1, 0, -1/3)
_STATE_CONSTRAINTS = (((1, 2, 0, -1, 0, 3, 0, 0, 1), 0), ((0, 1, 1, 0, -2, 0, 1, 0, 0), F(-1, 3)))
_EXTENSIONS = {
    ("min", "feasible"): ((1, F(-5, 9), 1, F(-4, 9), F(8, 9), F(-4, 9), 1, F(-5, 9), 1), 45),
    ("min", "infeasible"): (None, 45),
    ("max", "feasible"): ((1, F(-1, 3), -1, F(1, 3), -1, F(-1, 3), -1, F(1, 3), 1), 111),
    ("max", "infeasible"): (None, 115),
}


def _extend(kind, case):
    space = _tensor_target(kind)
    if case == "feasible":
        return extend_to_state(space, _STATE_CONSTRAINTS)
    # a state is nonnegative on every cone generator
    return extend_to_state(space, ((space.cone_generators[0], F(-1, 2)),))


@pytest.mark.parametrize("key", sorted(_EXTENSIONS))
def test_extend_to_state_on_tensor_targets_is_pinned(key):
    want, _ = _EXTENSIONS[key]
    f = _extend(*key)
    assert f == want
    if f is not None:
        assert all(type(q) is F for q in f)
        assert all(vdot(f, a) == c for a, c in _STATE_CONSTRAINTS)


def _hull_outside():
    return hull_membership([(0, 0), (2, 0), (0, 2), (1, 1)], (F(3, 2), F(3, 2)))


def test_infeasible_hull_certificate_is_pinned():
    ok, (prob, farkas) = _hull_outside()
    assert not ok
    assert farkas == (1, 1, -2) and all(type(q) is F for q in farkas)
    assert verify_farkas(prob, farkas)


# Row 1 is minus row 0 (redundant, dropped after phase 1), every right-hand
# side but one is negative (rows are sign-flipped), and the artificial left
# basic in row 2 is driven out on a negative entry.
_REDUNDANT = ([[-2, -1, 1], [2, 1, -1], [F(2, 3), F(-1, 3), F(2, 3)]], [-2, 2, F(-2, 3)])


def test_redundant_row_and_negative_rhs_are_pinned():
    x = (F(0), F(2), F(0))
    assert solve_standard(*_REDUNDANT) == (OPTIMAL, x, 0, None)
    status, got, value, _ = solve_standard(*_REDUNDANT, [1, -1, 3])
    assert (status, got, value) == (OPTIMAL, x, -2)
    assert type(value) is F and all(type(q) is F for q in got)


_PIVOTS = {
    "beale": (_beale, 6),
    "hull_outside": (_hull_outside, 3),
    "redundant": (lambda: solve_standard(*_REDUNDANT), 3),
    "redundant_max": (lambda: solve_standard(*_REDUNDANT, [1, -1, 3]), 4),
    **{f"extend_{k}_{c}": (lambda k=k, c=c: _extend(k, c), n)
       for (k, c), (_, n) in _EXTENSIONS.items()},
}


@pytest.mark.parametrize("name", sorted(_PIVOTS))
def test_pinned_lps_keep_their_pivot_counts(monkeypatch, name):
    # operation-count gate on the Bland pivot sequence
    solve, want = _PIVOTS[name]
    _tensor_target("min"), _tensor_target("max")    # built outside the count
    calls = []
    real = lp._pivot

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "_pivot", counting)
    solve()
    assert len(calls) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(fractions, min_size=2, max_size=4),
       st.lists(st.lists(fractions, min_size=2, max_size=4), min_size=1, max_size=3),
       st.data())
def test_feasible_systems_stay_feasible(x0, rows, data):
    # Build A from rows (truncated to len(x0)); b := A x0 with x0 >= 0 makes
    # the system feasible by construction; the solver must agree and return a
    # feasible point.
    n = len(x0)
    x0 = [abs(q) for q in x0]
    a = [r[:n] + [F(0)] * (n - len(r[:n])) for r in rows]
    b = [sum(c * x for c, x in zip(r, x0)) for r in a]
    status, x, _, _ = solve_standard(a, b, None)
    assert status == OPTIMAL
    for r, bi in zip(a, b):
        assert sum(c * xi for c, xi in zip(r, x)) == bi
    assert all(xi >= 0 for xi in x)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=2, max_size=4),
       st.lists(fractions, min_size=2, max_size=4))
def test_farkas_certificates_verify(rows, rhs):
    m = min(len(rows), len(rhs))
    prob = LinProb()
    for i in range(3):
        prob.var(("x", i))
    for r, b in zip(rows[:m], rhs[:m]):
        prob.add({("x", i): r[i] for i in range(3)}, EQ, b)
    sol = prob.feasible()
    if sol is None:
        assert verify_farkas(prob, prob.certificate)
    else:
        for r, b in zip(rows[:m], rhs[:m]):
            assert sum(r[i] * sol[("x", i)] for i in range(3)) == b


def _satisfies(rows, free, x):
    rel_ok = {EQ: lambda u, v: u == v, GE: lambda u, v: u >= v, LE: lambda u, v: u <= v}
    return (all(x[i] >= 0 for i, f in enumerate(free) if not f)
            and all(rel_ok[rel](sum(c * x[i] for i, c in enumerate(coeffs)), rhs)
                    for coeffs, rel, rhs in rows))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_linprobs_certify_their_answers(data):
    # every answer carries its own proof: an assignment that satisfies each
    # row exactly (and attains the reported value), or a Farkas certificate
    n = data.draw(st.integers(1, 4))
    free = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = data.draw(st.lists(st.tuples(st.lists(fractions, min_size=n, max_size=n),
                                        st.sampled_from((EQ, GE, LE)), fractions),
                              min_size=1, max_size=4))
    objective = data.draw(st.lists(fractions, min_size=n, max_size=n))
    prob = LinProb()
    for i, f in enumerate(free):
        prob.var(i, nonneg=not f)
    for coeffs, rel, rhs in rows:
        prob.add(dict(enumerate(coeffs)), rel, rhs)
    sol = prob.feasible()
    if sol is None:
        assert verify_farkas(prob, prob.certificate)
    else:
        assert _satisfies(rows, free, sol)
    status, value, x = prob.maximize(dict(enumerate(objective)))
    assert (status == INFEASIBLE) == (sol is None)
    if status == INFEASIBLE:
        assert verify_farkas(prob, prob.certificate)
    if status == OPTIMAL:
        assert _satisfies(rows, free, x)
        assert value == sum(c * x[i] for i, c in enumerate(objective))
