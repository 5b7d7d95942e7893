import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gptk import cli

MODELS = Path(__file__).resolve().parent.parent / "models"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gptk", *args],
                          capture_output=True, text=True)


def test_validate_exit_zero():
    r = run_cli("validate", str(MODELS / "bit.json"))
    assert r.returncode == 0
    assert "validation: ok" in r.stdout


def test_unknown_name_exit_two():
    r = run_cli("states", str(MODELS / "bit.json"), "nope")
    assert r.returncode == 2
    assert "unknown space" in r.stderr


def test_missing_file_exit_two():
    r = run_cli("validate", str(MODELS / "missing.json"))
    assert r.returncode != 0


def test_states_output():
    r = run_cli("states", str(MODELS / "bit.json"), "bit")
    assert r.returncode == 0
    assert "(0, 1)" in r.stdout and "(1, 0)" in r.stdout


def test_json_mode():
    r = run_cli("--json", "states", str(MODELS / "bit.json"), "bit")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["vertices"] == [["0", "1"], ["1", "0"]]
    assert payload["violations"] == 0


def test_dacey_report():
    r = run_cli("dacey", str(MODELS / "bit.json"), "triple",
                "--weight", "F", "--derandomize", "--state", "s1")
    assert r.returncode == 0
    assert 'p("x") = 2/3' in r.stdout
    assert "simulates the original: pass" in r.stdout


def test_command_determinism():
    a = run_cli("modj", str(MODELS / "bit.json"), "bit", "delta", "--lemma1")
    b = run_cli("modj", str(MODELS / "bit.json"), "bit", "delta", "--lemma1")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_float_in_file_rejected(tmp_path):
    p = tmp_path / "f.json"
    p.write_text('{"spaces": {"s": {"dim": 1, "cone_generators": [[0.25]], "unit": [1]}}}')
    r = run_cli("validate", str(p))
    assert r.returncode == 2
    assert "float" in r.stderr


def test_malformed_sections_exit_two(tmp_path):
    # wrong JSON types at the input boundary give a located InputError
    space = '"cone_generators": [[1, 0], [0, 1]], "unit": [1, 1]'
    cases = [
        ('{"spaces": {"bit": {"dim": "2", %s}}}' % space, "spaces.bit.dim: '2' is not an integer"),
        ('{"spaces": {"bit": {"dim": true, %s}}}' % space, "spaces.bit.dim: True is not an integer"),
        ('{"spaces": []}', "spaces: section must be an object"),
        ('{"effects": {}}', "effects: section must be a list"),
        ('{"spaces": {"bit": {%s}}, "channels": {"c": {"domain": "bit", "codomain": "bit", '
         '"matrix": [["1e400000", "0"], ["0", "1"]]}}}' % space,
         "channels.c: '1e400000' uses exponent notation; use 'p/q' strings"),
    ]
    observable = '{"indices": %s, "effects": [[1, 0], [0, 1]]}'
    for indices, bad in (('[["x"], "2"]', "['x']"), ('["1", true]', "True"), ('[null, "2"]', "None")):
        cases.append(('{"spaces": {"bit": {%s}}, "catalogs": {"c": {"space": "bit", '
                      '"observables": [%s]}}}' % (space, observable % indices),
                      f"catalogs.c.observables[0].indices: {bad} is not a string or an integer"))
    p = tmp_path / "m.json"
    for text, message in cases:
        p.write_text(text)
        r = run_cli("validate", str(p))
        assert r.returncode == 2
        assert r.stderr == f"error: {message}\n"
    # nodes of models/bit.json replaced by a value of the wrong JSON type; checked
    # in-process, which raises instead of exiting 1 if a TypeError slips through
    bit = json.loads((MODELS / "bit.json").read_text())
    explicit = {"kind": "explicit", "a": "bit", "b": "bit", "target": "bit", "coefficients": 5}
    joint = {"testspace_a": "coin", "testspace_b": "coin"}
    one_coin = {"x": {"x": "1", "y": "0"}, "y": {"x": "0", "y": "1"}}
    mutations = [
        (("models", "coin_model", "states"), [["x"]], "models.coin_model.states[0]: must be an object"),
        (("models", "coin_model", "states"), 3, "models.coin_model.states: must be a list"),
        (("valued_weights", "F", "values"), [1], "valued_weights.F.values: must be an object"),
        (("effect_algebras", "chain2", "sums"), 5, "effect_algebras.chain2.sums: must be a list"),
        (("effect_algebras", "chain2", "sums", 0), [["0"], "0", "0"],
         "effect_algebras.chain2.sums: ['0'] is not a string or an integer"),
        (("effect_algebras", "chain2", "elements"), 5, "effect_algebras.chain2.elements: must be a list"),
        (("catalogs", "delta", "observables"), 5, "catalogs.delta.observables: must be a list"),
        (("bilinear_rules", "rmin"), explicit, "bilinear_rules.rmin.coefficients: must be a list"),
        (("models", "coin_model", "testspace"), ["coin"], "models.coin_model.testspace: must be a string"),
        (("joint_weights",), {"j": dict(joint, values=[])}, "joint_weights.j.values: must be an object"),
        (("joint_weights",), {"j": dict(joint, values={"x": ["1"]})},
         "joint_weights.j.values[x]: must be an object"),
        (("joint_weights",), {"j": dict(joint, values={"x": {"x": "1"}})},
         "joint_weights.j: joint weight missing pair ('x', 'y')"),
        (("joint_weights",), {"j": dict(joint, values=one_coin)},
         "joint_weights.j: joint weight is not a probability weight on the product"),
        # errors raised by the constructors name the object too
        (("spaces", "bit", "cone_generators"), [["1", "0"]],
         "spaces.bit: cone generators do not span the space"),
        (("spaces", "bit", "cone_generators"), [["1", "0"], ["-1", "0"], ["0", "1"]],
         "spaces.bit: cone is not pointed"),
        (("testspaces", "coin", "tests"), [], "testspaces.coin: a test space needs at least one test"),
        (("models", "coin_model", "states", 0), {"x": "2", "y": "0"},
         "models.coin_model: model state is not a probability weight"),
        (("models", "coin_model", "testspace"), "nope", "models.coin_model: unknown testspace 'nope'"),
        (("catalogs", "delta", "observables", 0, "effects", 0), ["0", "0"],
         "catalogs.delta.observables[0]: observables exclude the zero effect"),
        (("kernels", "k", "matrix"), [["1", "1"], ["0", "1"]], "kernels.k: kernel rows must sum to one"),
        (("channels",), {"c": {"domain": "bit", "codomain": "bit", "matrix": [["1"]]}},
         "channels.c: matrix shape does not match the two spaces"),
    ]
    for path, value, message in mutations:
        p.write_text(json.dumps(replaced(bit, path, value)))
        assert validate_in_process(p) == (2, f"error: {message}\n")
    # a bare integer literal past int()'s digit limit, and bytes that are not UTF-8
    for raw in (b'{"spaces": {"bit": {"dim": %s}}}' % (b"7" * 5000), b'{"spaces": "\xff"}'):
        p.write_bytes(raw)
        r = run_cli("validate", str(p))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: {p}: ") and "Traceback" not in r.stderr


def replaced(doc, path, value):
    """A copy of doc with the node at path (a tuple of keys and indices) set to value."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def validate_in_process(path):
    """(return code, stderr) of ``gptk validate path`` run through cli.main."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    return code, err.getvalue()


def _nodes(node, path=()):
    """(path, value) for every node below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _json_type(v):
    return "bool" if isinstance(v, bool) else type(v).__name__


FUZZ_MODELS = {name: json.loads((MODELS / f"{name}.json").read_text()) for name in ("bit", "grid")}
FUZZ_CASES = [(name, path, value)
              for name, doc in FUZZ_MODELS.items() for path, old in _nodes(doc)
              for value in (None, True, 0, -1, "x", [], {}, [[]])
              if _json_type(value) != _json_type(old)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FUZZ_CASES))
def test_validate_survives_one_mistyped_node(tmp_path_factory, case):
    # the input boundary gives exit 0 or exit 2, never a traceback or exit 1
    name, path, value = case
    p = tmp_path_factory.getbasetemp() / "fuzz.json"
    p.write_text(json.dumps(replaced(FUZZ_MODELS[name], path, value)))
    code, err = validate_in_process(p)
    assert code in (0, 2), err
