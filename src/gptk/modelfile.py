"""Model-file ingestion: a JSON document naming every object the CLI can use.

Rationals are strings "p/q" (plain integers allowed); binary floats are
rejected so files stay exact.  Test-space outcomes in files are atoms
(strings); structured outcomes only arise in derived objects and appear in
reports, where pair outcomes serialize as [index, effect-table-ref] and
cover outcomes as [[event members], member].

Loading validates everything: all cross-references must resolve and every
referenced object's invariants are re-checked by its constructor.  An
``InputError`` or ``StructureError`` raised while reading an object names its
place in the file, as in ``spaces.<name>: ...``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from .channel import LinearMap, MarkovKernel
from .composite import BilinearRule, JointWeight, max_rule, min_rule
from .errors import InputError, StructureError
from .logic import make_effect_algebra
from .modj import Catalog, Observable
from .ous import OrderUnitSpace, is_state
from .testspace import TestSpace, canon_key, make_testspace
from .vweight import Model, ValuedWeight, is_valued_weight


def parse_rational(x, where="") -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise InputError(f"{where}: {x!r} is not an exact rational; use 'p/q' strings")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x.lower():
            raise InputError(f"{where}: {x!r} uses exponent notation; use 'p/q' strings")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: cannot parse rational {x!r}") from exc
    raise InputError(f"{where}: {x!r} is not a rational")


def format_rational(q: Fraction) -> str:
    return str(q)


def parse_vector(xs, where="") -> tuple:
    if not isinstance(xs, list):
        raise InputError(f"{where}: expected a list of rationals")
    return tuple(parse_rational(x, where) for x in xs)


def parse_matrix(rows, where="") -> tuple:
    if not isinstance(rows, list):
        raise InputError(f"{where}: expected a matrix")
    return tuple(parse_vector(r, where) for r in rows)


@dataclass
class ModelFile:
    spaces: dict = field(default_factory=dict)
    effects: list = field(default_factory=list)          # (space_name, vector)
    testspaces: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    space_states: dict = field(default_factory=dict)     # name -> (space_name, functional)
    valued_weights: dict = field(default_factory=dict)
    catalogs: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)
    bilinear_rules: dict = field(default_factory=dict)
    effect_algebras: dict = field(default_factory=dict)
    joint_weights: dict = field(default_factory=dict)    # name -> (ts_a, ts_b, table)

    def space(self, name) -> OrderUnitSpace:
        return _lookup(self.spaces, name, "space")

    def testspace(self, name) -> TestSpace:
        return _lookup(self.testspaces, name, "testspace")


def _lookup(table, name, kind):
    if not isinstance(name, str):
        raise InputError(f"{kind} reference {name!r} is not a name")
    if name not in table:
        raise InputError(f"unknown {kind} {name!r}")
    return table[name]


@contextmanager
def _located(where):
    """Prefix ``where`` to an InputError or StructureError raised inside, unless
    its message already names a place at or below ``where``."""
    try:
        yield
    except (InputError, StructureError) as exc:
        if str(exc).startswith((f"{where}:", f"{where}.", f"{where}[")):
            raise
        raise type(exc)(f"{where}: {exc}") from exc


_SECTIONS = {"spaces", "effects", "testspaces", "models", "space_states",
             "valued_weights", "catalogs", "channels", "kernels",
             "bilinear_rules", "effect_algebras", "joint_weights"}


def load(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=_reject_float)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
        except ValueError as exc:  # an over-long integer literal, or bytes that are not UTF-8
            raise InputError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    unknown = set(doc) - _SECTIONS
    if unknown:
        raise InputError(f"{path}: unknown sections {sorted(unknown)}")
    for section, body in sorted(doc.items()):
        if section == "effects" and not isinstance(body, list):
            raise InputError(f"{section}: section must be a list")
        if section != "effects" and not isinstance(body, dict):
            raise InputError(f"{section}: section must be an object")
    mf = ModelFile()

    for name, rec in sorted(doc.get("spaces", {}).items()):
        where = f"spaces.{name}"
        with _located(where):
            gens = parse_matrix(_req(rec, "cone_generators", where), where)
            unit = parse_vector(_req(rec, "unit", where), where)
            dim = rec.get("dim", len(unit))
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise InputError(f"{where}.dim: {dim!r} is not an integer")
            mf.spaces[name] = OrderUnitSpace(dim, gens, unit)

    for i, rec in enumerate(doc.get("effects", [])):
        where = f"effects[{i}]"
        with _located(where):
            mf.space(_req(rec, "space", where, str))  # reference must resolve
            mf.effects.append((rec["space"], parse_vector(_req(rec, "value", where), where)))

    for name, rec in sorted(doc.get("testspaces", {}).items()):
        where = f"testspaces.{name}"
        with _located(where):
            tests = _req(rec, "tests", where)
            if not isinstance(tests, list) or not all(isinstance(t, list) for t in tests):
                raise InputError(f"{where}: tests must be a list of outcome lists")
            for t in tests:
                for x in t:
                    if not isinstance(x, str):
                        raise InputError(f"{where}: file outcomes must be strings")
            mf.testspaces[name] = make_testspace([frozenset(t) for t in tests])

    for name, rec in sorted(doc.get("models", {}).items()):
        where = f"models.{name}"
        with _located(where):
            ts = mf.testspace(_req(rec, "testspace", where, str))
            states = []
            for k, raw in enumerate(_req(rec, "states", where, list)):
                w = f"{where}.states[{k}]"
                states.append({x: parse_rational(v, w) for x, v in _expect(raw, dict, w).items()})
            mf.models[name] = Model(ts, tuple(states))

    for name, rec in sorted(doc.get("space_states", {}).items()):
        where = f"space_states.{name}"
        with _located(where):
            sp = mf.space(_req(rec, "space", where, str))
            f = parse_vector(_req(rec, "functional", where), where)
            if not is_state(sp, f):
                raise InputError(f"{where}: functional is not a state")
            mf.space_states[name] = (rec["space"], f)

    for name, rec in sorted(doc.get("valued_weights", {}).items()):
        where = f"valued_weights.{name}"
        with _located(where):
            sp = mf.space(_req(rec, "space", where, str))
            ts = mf.testspace(_req(rec, "testspace", where, str))
            values = {x: parse_vector(v, f"{where}.values[{x}]")
                      for x, v in _req(rec, "values", where, dict).items()}
            vw = ValuedWeight(sp, ts, values)
            if not is_valued_weight(vw):
                bad = next((t for t in ts.tests if vw.event_value(t) != sp.unit), None)
                if bad is not None:
                    raise InputError(f"{where}: test {sorted(bad)} does not sum to the unit")
                raise InputError(f"{where}: some value leaves the positive cone")
            mf.valued_weights[name] = vw

    for name, rec in sorted(doc.get("catalogs", {}).items()):
        where = f"catalogs.{name}"
        with _located(where):
            sp = mf.space(_req(rec, "space", where, str))
            obs = []
            for k, raw in enumerate(_req(rec, "observables", where, list)):
                w = f"{where}.observables[{k}]"
                idx = _req(raw, "indices", w, list)
                refs = _req(raw, "effects", w, list)
                for i in idx:
                    _token(i, f"{w}.indices")
                if len(idx) != len(refs):
                    raise InputError(f"{w}: indices and effects differ in length")
                assignment = {}
                for i, ref in zip(idx, refs):
                    assignment[i] = _effect_ref(mf, rec["space"], ref, w)
                with _located(w):
                    obs.append(Observable(sp, tuple(idx), assignment))
            mf.catalogs[name] = Catalog(sp, tuple(obs))

    for name, rec in sorted(doc.get("channels", {}).items()):
        where = f"channels.{name}"
        with _located(where):
            dom = mf.space(_req(rec, "domain", where, str))
            cod = mf.space(_req(rec, "codomain", where, str))
            mf.channels[name] = LinearMap(dom, cod, parse_matrix(_req(rec, "matrix", where), where))

    for name, rec in sorted(doc.get("kernels", {}).items()):
        where = f"kernels.{name}"
        with _located(where):
            mf.kernels[name] = MarkovKernel(parse_matrix(_req(rec, "matrix", where), where))

    for name, rec in sorted(doc.get("bilinear_rules", {}).items()):
        where = f"bilinear_rules.{name}"
        with _located(where):
            kind = _req(rec, "kind", where)
            a = mf.space(_req(rec, "a", where, str))
            b = mf.space(_req(rec, "b", where, str))
            if kind == "min":
                mf.bilinear_rules[name] = min_rule(a, b)
            elif kind == "max":
                mf.bilinear_rules[name] = max_rule(a, b)
            elif kind == "explicit":
                target = mf.space(_req(rec, "target", where, str))
                co = _req(rec, "coefficients", where, list)
                coeffs = tuple(parse_matrix(plane, where) for plane in co)
                mf.bilinear_rules[name] = BilinearRule(a, b, target, coeffs)
            else:
                raise InputError(f"{where}: kind must be min, max or explicit")

    for name, rec in sorted(doc.get("effect_algebras", {}).items()):
        where = f"effect_algebras.{name}"
        with _located(where):
            elements = [_token(e, f"{where}.elements")
                        for e in _req(rec, "elements", where, list)]
            sums = {}
            for entry in _req(rec, "sums", where, list):
                if not isinstance(entry, list) or len(entry) != 3:
                    raise InputError(f"{where}: sums entries must be [a, b, a+b]")
                a, b, c = (_token(e, f"{where}.sums") for e in entry)
                sums[(a, b)] = c
            zero = _token(_req(rec, "zero", where), f"{where}.zero")
            one = _token(_req(rec, "one", where), f"{where}.one")
            mf.effect_algebras[name] = make_effect_algebra(elements, zero, one, sums)

    for name, rec in sorted(doc.get("joint_weights", {}).items()):
        where = f"joint_weights.{name}"
        with _located(where):
            ts_a = mf.testspace(_req(rec, "testspace_a", where, str))
            ts_b = mf.testspace(_req(rec, "testspace_b", where, str))
            table = {}
            for x, row in _req(rec, "values", where, dict).items():
                for y, v in _expect(row, dict, f"{where}.values[{x}]").items():
                    table[(x, y)] = parse_rational(v, f"{where}.values[{x}][{y}]")
            JointWeight(ts_a, ts_b, table)
            mf.joint_weights[name] = (rec["testspace_a"], rec["testspace_b"], table)

    return mf


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _req(rec, key, where, kind=None):
    """rec[key], which must be present and, if kind is given, of that JSON type."""
    if not isinstance(rec, dict) or key not in rec:
        raise InputError(f"{where}: missing field {key!r}")
    return rec[key] if kind is None else _expect(rec[key], kind, f"{where}.{key}")


def _expect(value, kind, where):
    if not isinstance(value, kind):
        raise InputError(f"{where}: must be {_KINDS[kind]}")
    return value


def _token(x, where):
    """An index or effect-algebra element: a string or an integer."""
    if not isinstance(x, (str, int)) or isinstance(x, bool):
        raise InputError(f"{where}: {x!r} is not a string or an integer")
    return x


def _effect_ref(mf: ModelFile, space_name, ref, where):
    if isinstance(ref, int):
        if not 0 <= ref < len(mf.effects):
            raise InputError(f"{where}: effect index {ref} out of range")
        sp_name, value = mf.effects[ref]
        if sp_name != space_name:
            raise InputError(f"{where}: effect {ref} belongs to space {sp_name!r}")
        return value
    if isinstance(ref, list):
        return parse_vector(ref, where)
    raise InputError(f"{where}: effect reference must be an index or a vector")


def _reject_float(s):
    raise InputError(f"binary float {s!r} in model file; use 'p/q' strings")


class OutcomeSerializer:
    """Serialize structured outcomes, interning effect vectors in a table."""

    def __init__(self):
        self.table = []
        self._index = {}

    def effect_ref(self, v: tuple) -> int:
        if v not in self._index:
            self._index[v] = len(self.table)
            self.table.append(v)
        return self._index[v]

    def outcome(self, o):
        if isinstance(o, str):
            return o
        if isinstance(o, bool):
            raise InputError("boolean outcome")
        if isinstance(o, int):
            return o
        if isinstance(o, Fraction):
            return format_rational(o)
        if isinstance(o, frozenset):
            return [self.outcome(x) for x in sorted(o, key=canon_key)]
        if isinstance(o, tuple):
            if o and isinstance(o[-1], tuple) and all(isinstance(e, Fraction) for e in o[-1]):
                return [self.outcome(x) for x in o[:-1]] + [self.effect_ref(o[-1])]
            return [self.outcome(x) for x in o]
        raise InputError(f"cannot serialize outcome {o!r}")

    def effect_table(self):
        return [[format_rational(x) for x in v] for v in self.table]
