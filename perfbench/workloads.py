"""The three in-process workloads: their inputs, their ops and their checks.

Each workload builds its fixed objects in ``setup`` and then hands out its
ops one cycle at a time.  A cycle is a fixed schedule of op kinds and sizes;
the seed only chooses the numbers inside each op.  Runs measure whole
cycles, so every run has the same mix whatever the seed.

An op is a closure over inputs generated here.  ``run`` calls gptk's public
API and returns ``(answer, aux)``: ``answer`` is plain data compared between
traced and untraced runs, ``aux`` carries what the check needs.  ``check``
compares the answer with ``oracles``, with certificates re-checked by direct
substitution, or with what is true by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable

import oracles as O

import gptk
from gptk import composite, lp, polyhedra, systems

F = Fraction
HALF = F(1, 2)


@dataclass
class Op:
    kind: str
    key: tuple          # plain-data inputs, hashed into the input digest
    run: Callable       # () -> (answer, aux)
    check: Callable     # (answer, aux, oracle) -> bool


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scale(c, v):
    return tuple(c * x for x in v)


def comb(coeffs, vectors):
    dim = len(vectors[0])
    return tuple(sum((c * v[i] for c, v in zip(coeffs, vectors)), F(0)) for i in range(dim))


# ---------------------------------------------------------------- generators

def circle_polygon(rng, k):
    """k rational points on the unit circle (so all are vertices), lifted to height 1."""
    ts = set()
    while len(ts) < k:
        ts.add(F(rng.randint(-12, 12), rng.randint(1, 6)))
    pts = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in sorted(ts)]
    gens = [(F(1), x, y) for x, y in pts]
    unit = (F(1), sum(p[0] for p in pts) / k, sum(p[1] for p in pts) / k)
    return 3, tuple(gens), unit


def box_polytope_cone(rng, d, k):
    """Cone over k random integer points of [-6, 6]^(d-1); the unit is their centroid."""
    while True:
        pts = {tuple(F(rng.randint(-6, 6)) for _ in range(d - 1)) for _ in range(k)}
        if len(pts) < k:
            continue
        pts = sorted(pts)
        if O.rank([(F(1),) + p for p in pts], d) == d:
            break
    gens = tuple((F(1),) + p for p in pts)
    unit = (F(1),) + tuple(sum(p[i] for p in pts) / k for i in range(d - 1))
    return d, gens, unit


def scaled_orthant(rng, n):
    """The orthant, generators scaled by random positive integers, with a random interior unit."""
    gens = tuple(tuple(F(rng.randint(1, 5)) if j == i else F(0) for j in range(n))
                 for i in range(n))
    unit = tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n))
    return n, gens, unit


def markov_matrix(rng, rows, cols):
    """Row-stochastic matrix with entries in 1/24 steps, as in the acceptance suite."""
    mat = []
    for _ in range(rows):
        cuts = sorted(F(rng.randint(0, 24), 24) for _ in range(cols - 1))
        row, prev = [], F(0)
        for c in cuts:
            row.append(c - prev)
            prev = c
        row.append(1 - prev)
        mat.append(tuple(row))
    return tuple(mat)


def positive_combo(rng, vectors, lo=1, hi=4):
    return comb([F(rng.randint(lo, hi), rng.randint(1, 3)) for _ in vectors], vectors)


# ---------------------------------------------------------------- cone_build

BUILD_SCHEDULE = (
    [("polygon", k) for k in range(4, 13)]
    + [("polytope", dk) for dk in ((4, 5), (4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8),
                                   (6, 7), (6, 8))]
    + [("orthant", n) for n in range(2, 8)]
    + [("markov", rc) for rc in ((2, 3), (3, 2), (3, 4), (4, 3), (4, 5), (5, 4), (5, 5))]
)


def _interleave(schedule):
    groups = {}
    for item in schedule:
        groups.setdefault(item[0], []).append(item)
    out = []
    while any(groups.values()):
        for g in groups.values():
            if g:
                out.append(g.pop(0))
    return out


class ConeBuild:
    name = "cone_build"

    def setup(self, seed):
        return {"seen": set()}

    def oracle(self, ctx):
        return None

    def cycle(self, ctx, rng):
        ops = []
        for kind, size in _interleave(BUILD_SCHEDULE):
            while True:
                if kind == "polygon":
                    spec = circle_polygon(rng, size)
                elif kind == "polytope":
                    spec = box_polytope_cone(rng, *size)
                elif kind == "orthant":
                    spec = scaled_orthant(rng, size)
                else:
                    spec = markov_matrix(rng, *size)
                if spec not in ctx["seen"]:
                    ctx["seen"].add(spec)
                    break
            ops.append(self._markov_op(spec) if kind == "markov" else self._space_op(kind, spec))
        return ops

    @staticmethod
    def _space_op(kind, spec):
        dim, gens, unit = spec

        def run():
            sp = gptk.OrderUnitSpace(dim, gens, unit)
            verts = tuple(gptk.state_polytope_vertices(sp))
            rays = tuple(gptk.dual_rays(sp))
            return (verts, rays), None

        def check(answer, aux, oracle):
            verts, rays = answer
            facets = O.extreme_rays(gens, dim)
            return list(rays) == facets and list(verts) == O.state_vertices(facets, unit)

        return Op(kind, (kind, spec), run, check)

    @staticmethod
    def _markov_op(matrix):
        def run():
            k = gptk.MarkovKernel(matrix)
            phi = gptk.markov_dual(k)
            return (gptk.is_channel(phi), phi.matrix), None

        def check(answer, aux, oracle):
            # a row-stochastic matrix maps the orthant into the orthant and
            # the all-ones vector to itself: its dual is a channel
            return answer == (True, matrix)

        return Op("markov", ("markov", matrix), run, check)


# ---------------------------------------------------------------- cone_query

class QueryOracle:
    """Facet lists of the fixed spaces, by brute force, computed once per run."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._facets = {}

    def facets(self, name):
        if name not in self._facets:
            c = self.ctx
            if name == "max":
                sq = O.extreme_rays(c["gens"]["sq"], 3)
                self._facets[name] = [O.tensor(f, g) for f in sq for g in sq]
            else:
                self._facets[name] = O.extreme_rays(c["gens"][name], c["dims"][name])
        return self._facets[name]

    def max_rays(self):
        """Extreme rays of the max cone, by brute force from its product facets."""
        if "max_rays" not in self._facets:
            self._facets["max_rays"] = O.extreme_rays(self.facets("max"), 9)
        return self._facets["max_rays"]

    def is_state(self, name, f):
        unit = self.ctx["units"][name]
        rays = self.max_rays() if name == "max" else self.ctx["gens"][name]
        return O.dot(f, unit) == 1 and all(O.dot(f, g) >= 0 for g in rays)


# Questions per cycle.  extend_to_state on the 9-dim targets costs 100x a
# small LP, so the other kinds are repeated until extend_to_state is about
# half of the cycle's time and no kind dominates.
QUERY_MIX = (
    ("cone_contains", ("sq", "poly", "c4"), 12),
    ("cone_contains", ("min", "max"), 24),
    ("is_effect", ("sq", "poly", "c4"), 2),
    ("is_effect", ("min", "max"), 3),
    ("is_state", ("sq", "poly", "c4", "min"), 3),
    ("min_cone_contains", ("probe",), 60),
    ("max_cone_contains", ("probe",), 60),
    ("extend_to_state", ("sq", "poly", "c4"), 2),
    ("extend_to_state", ("min", "max"), 1),
    ("hull_membership", ("pts",), 20),
)


class ConeQuery:
    name = "cone_query"

    def setup(self, seed):
        rng = random.Random(f"cone_query-setup:{seed}")
        sq = systems.square_bit()
        dim, gens, unit = circle_polygon(rng, 7)
        poly = gptk.OrderUnitSpace(dim, gens, unit)
        c4 = systems.classical(4)
        rmin = composite.min_rule(sq, sq)
        rmax = composite.max_rule(sq, sq)
        spaces = {"sq": sq, "poly": poly, "c4": c4, "min": rmin.target, "max": rmax.target}
        # Inputs are built from the benchmark's own copies of the generators,
        # never from what gptk computed: the max cone enters only through
        # the products of the square's facets that define it.
        own_gens = {"sq": sq.cone_generators, "poly": gens, "c4": c4.cone_generators}
        own_gens["min"] = tuple(O.tensor(g, h) for g in own_gens["sq"] for h in own_gens["sq"])
        sq_facets = O.extreme_rays(own_gens["sq"], 3)
        units = {"sq": sq.unit, "poly": unit, "c4": c4.unit}
        units["min"] = units["max"] = O.tensor(sq.unit, sq.unit)
        dims = {"sq": 3, "poly": 3, "c4": 4, "min": 9, "max": 9}
        small_facets = {k: O.extreme_rays(own_gens[k], dims[k]) for k in ("sq", "poly", "c4")}
        sq_states = O.state_vertices(sq_facets, sq.unit)
        return {"spaces": spaces, "sq": sq, "gens": own_gens, "units": units, "dims": dims,
                "small_facets": small_facets,
                "product_states": [O.tensor(s, t) for s in sq_states for t in sq_states],
                "product_facets": [O.tensor(f, g) for f in sq_facets for g in sq_facets]}

    def oracle(self, ctx):
        return QueryOracle(ctx)

    # -- input generators, each returning a vector with a known construction

    def _point(self, ctx, rng, name, how):
        """Inside, on the boundary, or outside the cone of space ``name``."""
        unit = ctx["units"][name]
        gens = ctx["gens"]["min" if name == "max" else name]    # products lie in both
        inside = positive_combo(rng, gens)
        if how == "inside":
            return inside
        if name in ("min", "max"):
            # on the face where a product facet f (x) f' vanishes: g fixed
            # with f(g) = 0, any nonnegative mix of g (x) h
            g = rng.choice(ctx["gens"]["sq"])
            face = [O.tensor(g, h) for h in ctx["gens"]["sq"]]
            facet = rng.choice(ctx["product_facets"])
        else:
            facet = rng.choice(ctx["small_facets"][name])
            face = [g for g in gens if O.dot(facet, g) == 0]
        if how == "boundary":
            coeffs = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in face]
            coeffs[rng.randrange(len(face))] += 1
            return comb(coeffs, face)
        # outside: push the inside point along -unit until facet(v) = -delta
        delta = F(rng.randint(1, 4), rng.randint(1, 4))
        return sub(inside, scale((O.dot(facet, inside) + delta) / O.dot(facet, unit), unit))

    def _probe(self, ctx, rng):
        """A 9-vector near the unit tensor; where it falls is left to the oracle."""
        base = O.tensor(ctx["sq"].unit, ctx["sq"].unit)
        spread = F(rng.randint(1, 6), 4)
        return tuple(b + spread * F(rng.randint(-4, 4), 4) for b in base)

    def cycle(self, ctx, rng):
        ops = []
        for kind, names, reps in QUERY_MIX:
            for _ in range(reps):
                for name in names:
                    ops.append(getattr(self, "_" + kind)(ctx, rng, name))
        rng.shuffle(ops)
        return ops

    def _cone_contains(self, ctx, rng, name):
        how = rng.choice(("inside", "boundary", "outside"))
        v = self._point(ctx, rng, name, how)
        sp = ctx["spaces"][name]

        def check(answer, aux, oracle):
            return answer == O.in_cone_by_facets(oracle.facets(name), v) == (how != "outside")

        return Op("cone_contains", ("cone_contains", name, v),
                  lambda: (gptk.cone_contains(sp, v), None), check)

    def _is_effect(self, ctx, rng, name):
        how = rng.choice(("inside", "boundary", "outside"))
        v = scale(F(1, rng.randint(2, 12)), self._point(ctx, rng, name, how))
        sp, unit = ctx["spaces"][name], ctx["units"][name]

        def check(answer, aux, oracle):
            fs = oracle.facets(name)
            return answer == (O.in_cone_by_facets(fs, v) and O.in_cone_by_facets(fs, sub(unit, v)))

        return Op("is_effect", ("is_effect", name, v),
                  lambda: (gptk.is_effect(sp, v), None), check)

    def _is_state(self, ctx, rng, name):
        if name == "min":
            states = ctx["product_states"]
        else:
            states = O.state_vertices(ctx["small_facets"][name], ctx["units"][name])
        weights = [F(rng.randint(0, 3)) for _ in states]
        weights[rng.randrange(len(states))] += 1
        f = comb([w / sum(weights) for w in weights], states)
        if rng.random() < 0.4:      # off the state set: wrong normalization or sign
            f = scale(F(rng.choice((-1, 2, 3))), f)
        sp = ctx["spaces"][name]

        def check(answer, aux, oracle):
            return answer == oracle.is_state(name, f)

        return Op("is_state", ("is_state", name, f), lambda: (gptk.is_state(sp, f), None), check)

    def _min_cone_contains(self, ctx, rng, name):
        t = self._probe(ctx, rng)
        sq = ctx["sq"]

        def check(answer, aux, oracle):
            return answer == O.in_cone_by_facets(oracle.facets("min"), t)

        return Op("min_cone_contains", ("min_cone_contains", t),
                  lambda: (gptk.min_cone_contains(sq, sq, t), None), check)

    def _max_cone_contains(self, ctx, rng, name):
        t = self._probe(ctx, rng)
        sq = ctx["sq"]

        def check(answer, aux, oracle):
            return answer == O.in_cone_by_facets(oracle.facets("max"), t)

        return Op("max_cone_contains", ("max_cone_contains", t),
                  lambda: (gptk.max_cone_contains(sq, sq, t), None), check)

    def _extend_to_state(self, ctx, rng, name):
        sp, unit, dim = ctx["spaces"][name], ctx["units"][name], ctx["dims"][name]
        if name in ("min", "max"):
            # products of the square's states are states of both targets
            states = ctx["product_states"]
            gens = ctx["gens"]["min"]
        else:
            states = O.state_vertices(ctx["small_facets"][name], unit)
            gens = ctx["gens"][name]
        feasible = rng.random() < 0.5
        if feasible:
            s = comb([HALF, HALF], [rng.choice(states), rng.choice(states)])
            cons = []
            for _ in range(rng.randint(1, 2)):
                a = tuple(F(rng.randint(-3, 3), 4) for _ in range(dim))
                cons.append((a, O.dot(s, a)))
        else:
            # a state is nonnegative on every cone generator
            cons = [(rng.choice(gens), F(-1, rng.randint(1, 5)))]
        cons = tuple(cons)

        def run():
            f = gptk.extend_to_state(sp, cons)
            return f, None

        def check(answer, aux, oracle):
            if answer is None:
                return not feasible
            return oracle.is_state(name, answer) and all(O.dot(answer, a) == c for a, c in cons)

        return Op("extend_to_state", ("extend_to_state", name, cons), run, check)

    def _hull_membership(self, ctx, rng, name):
        dim = rng.randint(3, 5)
        pts = tuple(tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
                    for _ in range(rng.randint(dim + 1, 8)))
        weights = [F(rng.randint(0, 4)) for _ in pts]
        weights[0] += 1
        target = comb([w / sum(weights) for w in weights], pts)
        inside = rng.random() < 0.5
        if not inside:      # beyond every point in the first coordinate
            target = (max(p[0] for p in pts) + F(1, rng.randint(1, 5)),) + target[1:]

        def run():
            ok, cert = polyhedra.hull_membership(pts, target)
            if ok:
                return (True, cert), None
            prob, farkas = cert
            return (False, farkas), prob

        def check(answer, aux, oracle):
            ok, cert = answer
            if ok != inside:
                return False
            if not ok and not lp.verify_farkas(aux, cert):
                return False
            return O.hull_certificate_ok(pts, target, ok, cert)

        return Op("hull_membership", ("hull_membership", pts, target), run, check)


# ---------------------------------------------------------------- composite_sweep

def _relabel(rng):
    """A fresh prefix for outcome labels, so repeated structures get distinct inputs."""
    return "".join(rng.choice("pqrstuvw") for _ in range(3))


def _gbit_model(prefix):
    ts = gptk.make_testspace([{prefix + "X0", prefix + "X1"}, {prefix + "Y0", prefix + "Y1"}])
    states = []
    for p in (0, 1):
        for q in (0, 1):
            states.append({prefix + "X0": F(p), prefix + "X1": F(1 - p),
                           prefix + "Y0": F(q), prefix + "Y1": F(1 - q)})
    return gptk.Model(ts, tuple(states))


def _bit_model(prefix):
    ts = gptk.make_testspace([{prefix + "x", prefix + "y"}])
    return gptk.Model(ts, ({prefix + "x": F(1), prefix + "y": F(0)},
                           {prefix + "x": F(0), prefix + "y": F(1)}))


def _ns_rows(m, n):
    """Normalization and non-signalling equalities over the product outcomes, built here."""
    pairs = [(x, y) for x in m.outcomes for y in n.outcomes]
    pos = {p: i for i, p in enumerate(pairs)}
    eqs = []

    def row(cells):
        r = [F(0)] * len(pairs)
        for c in cells:
            r[pos[c]] += 1
        return r

    for e in m.tests:
        for f in n.tests:
            eqs.append((tuple(row([(x, y) for x in e for y in f])), F(1)))
    for x in m.outcomes:
        for f in n.tests[1:]:
            r = [a - b for a, b in zip(row([(x, y) for y in f]), row([(x, y) for y in n.tests[0]]))]
            eqs.append((tuple(r), F(0)))
    for y in n.outcomes:
        for e in m.tests[1:]:
            r = [a - b for a, b in zip(row([(x, y) for x in e]), row([(x, y) for x in m.tests[0]]))]
            eqs.append((tuple(r), F(0)))
    return pairs, eqs


def _local_box(a_bits, b_bits, pa, pb):
    """Deterministic box: side A answers a_bits[s] to test s, side B b_bits[t]."""
    table = {}
    for s, t in iproduct("XY", "XY"):
        for i, j in iproduct((0, 1), (0, 1)):
            hit = i == a_bits["XY".index(s)] and j == b_bits["XY".index(t)]
            table[(f"{pa}{s}{i}", f"{pb}{t}{j}")] = F(1) if hit else F(0)
    return table


def _pr_variant(alpha, beta, gamma, pa, pb):
    """i xor j = [s=Y][t=Y] xor alpha[s=Y] xor beta[t=Y] xor gamma, weight 1/2 each."""
    table = {}
    for s, t in iproduct("XY", "XY"):
        sy, ty = int(s == "Y"), int(t == "Y")
        for i, j in iproduct((0, 1), (0, 1)):
            hit = (i ^ j) == ((sy & ty) ^ (alpha & sy) ^ (beta & ty) ^ gamma)
            table[(f"{pa}{s}{i}", f"{pb}{t}{j}")] = HALF if hit else F(0)
    return table


def _chsh_local(omega, pa, pb):
    """Whether a non-signalling gbit box is local: all CHSH sums within [-2, 2].

    For two parties with two binary tests each, positivity, non-signalling
    and the CHSH inequalities are all the facets of the local polytope.
    """
    def corr(s, t):
        return sum((-1) ** (i ^ j) * omega[(f"{pa}{s}{i}", f"{pb}{t}{j}")]
                   for i, j in iproduct((0, 1), (0, 1)))

    e = {(s, t): corr(s, t) for s, t in iproduct("XY", "XY")}
    total = sum(e.values())
    return all(abs(total - 2 * e[st]) <= 2 for st in e)


def _sharp_square_catalog(sq, rng):
    """Two sharp binary observables of the square bit, orientations and labels seeded."""
    pre = _relabel(rng)
    ex = rng.choice(((HALF, HALF, F(0)), (HALF, -HALF, F(0))))
    ey = rng.choice(((HALF, F(0), HALF), (HALF, F(0), -HALF)))
    obs = []
    for label, e in (("X", ex), ("Y", ey)):
        obs.append(gptk.observable(sq, {f"{pre}{label}0": e, f"{pre}{label}1": sub(sq.unit, e)}))
    return gptk.Catalog(sq, tuple(obs))


def _partition_catalog(space, atoms, rng):
    """Two observables, each a random coarse-graining of ``atoms`` (effects summing to the unit)."""
    pre = _relabel(rng)
    obs = []
    for k in range(2):
        while True:
            blocks = [rng.randrange(len(atoms)) for _ in atoms]
            if len(set(blocks)) >= 2:
                break
        effects = {}
        for b, a in zip(blocks, atoms):
            effects[b] = a if b not in effects else tuple(x + y for x, y in zip(effects[b], a))
        obs.append(gptk.observable(space, {f"{pre}{k}{b}": e for b, e in effects.items()}))
    return gptk.Catalog(space, tuple(obs))


# Ops per cycle.  The square-bit sweeps carry most of the time; the
# separability questions are the majority of the ops, so the median op
# lands inside their cluster.
SWEEP_MIX = (
    ("sweep", "sq_max", 1), ("sweep", "sq_min", 1), ("sweep", "tri_tri", 3),
    ("sweep", "c2_c3", 3), ("sweep", "c2_c2", 3),
    ("ns", "gg", 1), ("ns", "bg", 2), ("ns", "bb", 2),
    ("separability", "gg", 20),
)


class CompositeSweep:
    name = "composite_sweep"

    def setup(self, seed):
        sq = systems.square_bit()
        c2, c3 = systems.classical(2), systems.classical(3)
        # a fixed lattice triangle: its 9-dim sweep costs the same for every seed
        gens = ((F(1), F(-1), F(-1)), (F(1), F(2), F(-1)), (F(1), F(-1), F(2)))
        tri = gptk.OrderUnitSpace(3, gens, (F(1), F(0), F(0)))
        rules = {
            "sq_max": (gptk.max_rule(sq, sq), "sq", "sq"),
            "sq_min": (gptk.min_rule(sq, sq), "sq", "sq"),
            "tri_tri": (gptk.min_rule(tri, tri), "tri", "tri"),
            "c2_c3": (gptk.min_rule(c2, c3), "c2", "c3"),
            "c2_c2": (gptk.min_rule(c2, c2), "c2", "c2"),
        }
        for rule, _, _ in rules.values():      # every sweep reads these; warm them once
            gptk.state_polytope_vertices(rule.target)
        # the unit as a sum of generator multiples: the finest sharp observable
        atoms = {"tri": tuple(scale(F(1, 3), g) for g in gens),
                 "c2": c2.cone_generators, "c3": c3.cone_generators}
        return {"rules": rules, "atoms": atoms,
                "spaces": {"sq": sq, "tri": tri, "c2": c2, "c3": c3}}

    def oracle(self, ctx):
        return {}

    def cycle(self, ctx, rng):
        ops = []
        for kind, which, reps in SWEEP_MIX:
            for _ in range(reps):
                ops.append(getattr(self, "_" + kind)(ctx, rng, which))
        rng.shuffle(ops)
        return ops

    def _catalog(self, ctx, rng, side):
        sp = ctx["spaces"][side]
        if side == "sq":
            return _sharp_square_catalog(sp, rng)
        return _partition_catalog(sp, ctx["atoms"][side], rng)

    def _sweep(self, ctx, rng, which):
        rule, side_a, side_b = ctx["rules"][which]
        seed_a, seed_b = rng.getrandbits(32), rng.getrandbits(32)

        def run():
            # catalogs are validated inside the op: building them is part of the sweep
            cat_a = self._catalog(ctx, random.Random(seed_a), side_a)
            cat_b = self._catalog(ctx, random.Random(seed_b), side_b)
            mm = gptk.monoidal_map(rule, cat_a, cat_b)
            ok = gptk.monoidality_check(rule, cat_a, cat_b)
            flags = gptk.composite_flags(mm.fragment.model, mm)
            effects_a = sorted({a for f in cat_a.observables for a in f.assignment.values()})
            effects_b = sorted({b for g in cat_b.observables for b in g.assignment.values()})
            answer = (mm.test_preserving, len(mm.excluded), len(mm.fragment.testspace.tests),
                      ok, flags["strong"], flags["locally_tomographic"])
            return answer, (effects_a, effects_b)

        def check(answer, aux, oracle):
            preserving, excluded, _tests, ok, strong, tomographic = answer
            effects_a, effects_b = aux
            # The coordinatewise tensor into any cone between min and max
            # pulls every composite state back to a non-signalling table
            # whose conditionals are states; product states are composite
            # states; local tomography is a rank question.
            dim = len(effects_a[0]) * len(effects_b[0])
            spans = O.rank([O.tensor(a, b) for a in effects_a for b in effects_b], dim) == dim
            return (preserving and excluded == 0 and ok and strong and tomographic == spans)

        return Op("sweep_" + which, ("sweep", which, seed_a, seed_b), run, check)

    def _ns(self, ctx, rng, which):
        pa, pb = _relabel(rng), _relabel(rng)
        make = {"g": _gbit_model, "b": _bit_model}

        def models():
            return make[which[0]](pa), make[which[1]](pb)

        def run():
            ma, mb = models()
            verts = gptk.composite.ns_joint_vertices(ma, mb)
            pairs = sorted(verts[0]) if verts else []
            return tuple(sorted(tuple(v[p] for p in pairs) for v in verts)), pairs

        def check(answer, pairs, oracle):
            # Sorted product outcomes keep one order whatever the prefixes,
            # so one enumeration per model pair serves every relabelling.
            key = ("ns", which)
            if key not in oracle:
                ma, mb = models()
                order, eqs = _ns_rows(ma.testspace, mb.testspace)
                ineqs = [(tuple(F(int(i == j)) for j in range(len(order))), F(0))
                         for i in range(len(order))]
                verts = O.polytope_vertices(ineqs, eqs, len(order))
                idx = {p: i for i, p in enumerate(order)}
                oracle[key] = tuple(sorted(tuple(v[idx[p]] for p in sorted(order)) for v in verts))
            return answer == oracle[key]

        return Op("ns_joint_vertices", ("ns", which, pa, pb), run, check)

    def _separability(self, ctx, rng, which):
        pa, pb = _relabel(rng), _relabel(rng)
        boxes = [_local_box({0: rng.randint(0, 1), 1: rng.randint(0, 1)},
                            {0: rng.randint(0, 1), 1: rng.randint(0, 1)}, pa, pb)
                 for _ in range(rng.randint(1, 3))]
        pr = _pr_variant(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1), pa, pb)
        lam = F(rng.randint(0, 8), 8)
        local = F(1) - lam
        omega = {k: lam * pr[k] + sum(local / len(boxes) * b[k] for b in boxes) for k in pr}
        key = tuple(sorted(omega.items()))

        def run():
            ma, mb = _gbit_model(pa), _gbit_model(pb)
            joint = gptk.is_joint_state(ma, mb, omega)
            ok, cert = composite.separability_witness(ma, mb, omega)
            if ok:
                return (joint, True, cert), (ma, mb, None)
            prob, farkas = cert
            return (joint, False, farkas), (ma, mb, prob)

        def check(answer, aux, oracle):
            joint, ok, cert = answer
            ma, mb, prob = aux
            # Every mixture of local and PR boxes is non-signalling, and the
            # gbit model's states fill its whole weight square: a joint state.
            if not joint or ok != _chsh_local(omega, pa, pb):
                return False
            if not ok:
                return lp.verify_farkas(prob, cert)
            # weights follow the product states in input order, a outer
            pairs = [(x, y) for x in ma.testspace.outcomes for y in mb.testspace.outcomes]
            points = [tuple(sa[x] * sb[y] for x, y in pairs)
                      for sa in ma.states for sb in mb.states]
            return O.hull_certificate_ok(points, tuple(omega[p] for p in pairs), ok, cert)

        return Op("separability", ("separability", key), run, check)


WORKLOADS = {w.name: w for w in (ConeBuild(), ConeQuery(), CompositeSweep())}
