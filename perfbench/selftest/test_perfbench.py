"""Self-test of the benchmark itself (not of gptk).

Run from the repository root:  python3 -m pytest perfbench/selftest -q
It takes about a minute: it runs the cheapest traced workloads twice.
"""

from __future__ import annotations

import ast
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cli_suite  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench_env"], json.loads(lines[-1])


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cycle_digest(name, seed, cycles=2):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(seed)
    rng = random.Random(f"{name}:{seed}")
    return run.digest(op.key for _ in range(cycles) for op in wl.cycle(ctx, rng))


@pytest.mark.parametrize("name", ["cone_build", "cone_query", "composite_sweep"])
def test_inputs_follow_the_seed(name):
    assert cycle_digest(name, 5) == cycle_digest(name, 5)
    assert cycle_digest(name, 5) != cycle_digest(name, 6)


def test_cone_build_inputs_are_distinct():
    wl = workloads.WORKLOADS["cone_build"]
    ctx = wl.setup(3)
    rng = random.Random("cone_build:3")
    keys = [op.key for _ in range(3) for op in wl.cycle(ctx, rng)]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", ["cone_build", "cone_query"])
def test_traced_runs_repeat_counts_and_match_untraced(name):
    first_env, first = result(bench("--workload", name, "--seed", "7", "--seconds", "1",
                                    "--trace", "1"))
    second_env, second = result(bench("--workload", name, "--seed", "7", "--seconds", "1",
                                      "--trace", "1"))
    # correct covers the oracles and traced-versus-untraced answers
    assert first["correct"] and second["correct"] and first["failed"] == 0
    assert first_env["input_digest"] == second_env["input_digest"]
    assert [m["name"] for m in spec()["per_layer"]] == list(first["metrics"])
    for key, metric in first["metrics"].items():
        if metric["unit"] in ("count", "bits"):
            assert metric["value"] == second["metrics"][key]["value"], key


def test_untraced_run_prints_every_end_to_end_metric():
    env, res = result(bench("--workload", "cone_build", "--seed", "2", "--seconds", "1"))
    assert res["correct"] and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] != 0 for v in res["metrics"].values())
    # timed metrics are the raw ones scaled by the host-speed factor, never
    # anything else
    f = env["host_factor"]
    assert res["metrics"]["op_ms.p50"]["value"] == pytest.approx(f * env["raw"]["op_ms.p50"])
    assert res["metrics"]["ops_per_s"]["value"] == pytest.approx(env["raw"]["ops_per_s"] / f)
    for key in ("python", "nproc", "PYTHONHASHSEED", "seed", "commit", "GPTK_EVENT_CAP_set"):
        assert key in env


def test_benchmark_json_workloads_match_the_runner():
    for w in spec()["workloads"]:
        assert run.WHY[w["name"]] == w["why"]


def test_refuses_to_run_without_gptk_sources():
    tmp = BENCH / "out" / "bare_checkout"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, tmp / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = bench("--workload", "cone_build", "--seed", "1", "--seconds", "1", cwd=tmp)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(tmp)


def test_tracer_rebinds_every_reexport_and_restores():
    import gptk
    from gptk import composite, ous, polyhedra

    before = (gptk.dual_rays, ous.extreme_rays, composite.extreme_rays, polyhedra.extreme_rays)
    tracer = Tracer()
    tracer.install()
    try:
        assert ous.extreme_rays is composite.extreme_rays is polyhedra.extreme_rays
        assert polyhedra.extreme_rays.__wrapped__ is before[3]
        assert gptk.dual_rays is ous.dual_rays is composite.dual_rays
        assert gptk.dual_rays.__wrapped__ is before[0]
        gptk.cone_contains(gptk.OrderUnitSpace(2, ((1, 0), (0, 1)), (1, 1)), (1, 2))
    finally:
        tracer.uninstall()
    assert (gptk.dual_rays, ous.extreme_rays, composite.extreme_rays,
            polyhedra.extreme_rays) == before
    names = {span[3] for span in tracer.spans}
    assert {"ous.OrderUnitSpace.__post_init__", "ous.cone_contains", "polyhedra.in_cone",
            "lp.LinProb.feasible", "lp.solve_standard"} <= names


def test_workloads_call_only_public_gptk_names():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    gptk_names = {"gptk", "composite", "lp", "polyhedra", "systems"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in gptk_names:
                assert not node.attr.startswith("_"), node.attr
    # dynamically: every call the benchmark makes into gptk enters a public name
    tracer = Tracer()
    tracer.install()
    try:
        for name in ("cone_build", "cone_query"):
            wl = workloads.WORKLOADS[name]
            ops = wl.cycle(wl.setup(1), random.Random(1))
            for op in ops[:40]:
                op.run()
    finally:
        tracer.uninstall()
    top = {span[3] for span in tracer.spans if span[1] is None}
    assert top and all(not part.startswith("_") or part == "__post_init__"
                       for name in top for part in name.split("."))


def test_cli_commands_are_the_acceptance_suite():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    suite = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "CLI_SUITE")
    ours = [[a.removeprefix("models/") for a in cmd] for cmd in cli_suite.COMMANDS]
    assert ours == suite
    assert set(cli_suite.load_digests()) == {cli_suite.digest_key(c) for c in cli_suite.COMMANDS}
