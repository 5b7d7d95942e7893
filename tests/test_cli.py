import json
import subprocess
import sys
from pathlib import Path

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
    # a bare integer literal past int()'s digit limit, and bytes that are not UTF-8
    for raw in (b'{"spaces": {"bit": {"dim": %s}}}' % (b"7" * 5000), b'{"spaces": "\xff"}'):
        p.write_bytes(raw)
        r = run_cli("validate", str(p))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: {p}: ") and "Traceback" not in r.stderr
