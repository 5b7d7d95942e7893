"""gptk benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run sets up (several times, reporting the median),
runs the whole number of cycles of the workload's ops that lasts nearest to
S seconds (at least one), checks every answer, and prints the end-to-end
metrics.  With ``--trace 1`` it sets
up once and runs one cycle under the tracer, then repeats both untraced to
compare answers and measure the tracer's overhead, and prints the per-layer
metrics.  The last line of stdout is the result as one JSON object; the line
before it records the environment.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
HOST_EVERY = 0.05       # seconds between host-speed probes in in-process runs
PROBE_REPEATS = 3       # back-to-back probes per host-speed sample
IMPORT_PROBES = 5

WHY = {
    "cli_suite": "the acceptance CLI suite as fresh processes: start-up, modelfile, cli "
                 "and the gbit max-rule validation",
    "cone_build": "distinct spaces built and validated with vertices and facets: the write "
                  "side of ous, polyhedra and lp, nothing reused",
    "cone_query": "membership, effect, state, extension and hull questions on fixed "
                  "spaces: the read side of ous, lp and modj, full reuse",
    "composite_sweep": "monoidality sweeps, non-signalling vertices and separability: "
                       "composite and modj",
}

# op_ms.tail is a percentile with at least ten samples beyond it at each
# workload's sample count in a 50 s run: p90 where a run has thousands of ops,
# p75 for the ~100 commands of cli_suite and the ~170 ops of composite_sweep.
TAIL = {"cli_suite": 0.75, "cone_build": 0.9, "cone_query": 0.9, "composite_sweep": 0.75}

# name, unit, value from (tracer, extras); self times are *_s.
PER_LAYER = (
    ("lp.solve.calls", "count", lambda t, x: t.calls("lp.solve_standard")),
    ("lp.solve.self_s", "s", lambda t, x: t.self_s("lp.solve_standard")),
    ("lp.solve.cells", "count", lambda t, x: t.counts["lp.solve.cells"]),
    ("lp.solve.infeasible", "count", lambda t, x: t.counts["lp.solve.infeasible"]),
    ("lp.solve.max_bits", "bits", lambda t, x: t.counts["lp.solve.max_bits"]),
    ("lp.build.self_s", "s", lambda t, x: t.self_s("lp.LinProb.feasible", "lp.LinProb.maximize")),
    ("linalg.rref.calls", "count", lambda t, x: t.calls("linalg.rref")),
    ("linalg.rref.self_s", "s", lambda t, x: t.self_s("linalg.rref")),
    ("linalg.rref.cells", "count", lambda t, x: t.counts["linalg.rref.cells"]),
    ("polyhedra.extreme_rays.calls", "count", lambda t, x: t.calls("polyhedra.extreme_rays")),
    ("polyhedra.extreme_rays.self_s", "s", lambda t, x: t.self_s("polyhedra.extreme_rays")),
    ("polyhedra.extreme_rays.rays_out", "count",
     lambda t, x: t.counts["polyhedra.extreme_rays.rays_out"]),
    ("polyhedra.polytope_vertices.calls", "count",
     lambda t, x: t.calls("polyhedra.polytope_vertices")),
    ("polyhedra.polytope_vertices.self_s", "s",
     lambda t, x: t.self_s("polyhedra.polytope_vertices")),
    ("polyhedra.in_cone.calls", "count", lambda t, x: t.calls("polyhedra.in_cone")),
    ("polyhedra.hull_membership.calls", "count",
     lambda t, x: t.calls("polyhedra.hull_membership")),
    ("ous.validate.calls", "count", lambda t, x: t.calls("ous.OrderUnitSpace.__post_init__")),
    ("ous.validate.self_s", "s", lambda t, x: t.self_s("ous.OrderUnitSpace.__post_init__")),
    ("ous.is_order_unit.calls", "count", lambda t, x: t.calls("ous.is_order_unit")),
    ("ous.membership.calls", "count",
     lambda t, x: t.calls("ous.cone_contains", "ous.is_effect", "ous.is_state")),
    ("ous.dual_rays.hits", "count", lambda t, x: x["cache"][0]),
    ("ous.dual_rays.misses", "count", lambda t, x: x["cache"][1]),
    ("ous.state_vertices.hits", "count", lambda t, x: x["cache"][2]),
    ("ous.state_vertices.misses", "count", lambda t, x: x["cache"][3]),
    ("modj.build_modj.calls", "count", lambda t, x: t.calls("modj.build_modj")),
    ("modj.build_modj.self_s", "s", lambda t, x: t.self_s("modj.build_modj")),
    ("modj.extend_to_state.calls", "count", lambda t, x: t.calls("modj.extend_to_state")),
    ("modj.extend_to_state.self_s", "s", lambda t, x: t.self_s("modj.extend_to_state")),
    ("modj.observable.calls", "count", lambda t, x: t.calls("modj.Observable.__post_init__")),
    ("composite.is_nonsignalling.calls", "count",
     lambda t, x: t.calls("composite.is_nonsignalling")),
    ("composite.is_nonsignalling.self_s", "s",
     lambda t, x: t.self_s("composite.is_nonsignalling")),
    ("composite.conditionals.calls", "count",
     lambda t, x: t.calls("composite.conditionals", "composite.conditionals_second")),
    ("composite.product_testspace.calls", "count",
     lambda t, x: t.calls("composite.product_testspace")),
    ("composite.monoidality_check.self_s", "s",
     lambda t, x: t.self_s("composite.monoidality_check")),
    ("composite.rule_build.calls", "count",
     lambda t, x: t.calls("composite.BilinearRule.__post_init__")),
    ("composite.rule_build.self_s", "s",
     lambda t, x: t.self_s("composite.BilinearRule.__post_init__")),
    ("channel.markov_dual.calls", "count", lambda t, x: t.calls("channel.markov_dual")),
    ("channel.is_channel.calls", "count", lambda t, x: t.calls("channel.is_channel")),
    ("channel.is_channel.self_s", "s", lambda t, x: t.self_s("channel.is_channel")),
    ("testspace.make_testspace.calls", "count", lambda t, x: t.calls("testspace.make_testspace")),
    ("testspace.make_testspace.self_s", "s", lambda t, x: t.self_s("testspace.make_testspace")),
    ("logic.self_s", "s", lambda t, x: t.self_s(prefix="logic.")),
    ("dacey.self_s", "s", lambda t, x: t.self_s(prefix="dacey.")),
    ("vweight.self_s", "s", lambda t, x: t.self_s(prefix="vweight.")),
    ("modelfile.load.calls", "count", lambda t, x: t.calls("modelfile.load")),
    ("modelfile.load.self_s", "s", lambda t, x: t.self_s("modelfile.load")),
    ("cli.report.self_s", "s", lambda t, x: t.self_s(prefix="cli.")),
    ("cli.import_s", "s", lambda t, x: x["import_s"]),
    ("trace.overhead_ratio", "ratio", lambda t, x: x["overhead"]),
)


def percentile(values, q):
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit():
    """HEAD of the checkout if it is a git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gptk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child_env(hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = hashseed
    return env


def spawn_seconds(env, code):
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   capture_output=True)
    return perf_counter() - t0


def import_probe(env):
    """Wall time of a fresh interpreter that imports gptk."""
    return spawn_seconds(env, "import gptk")


def import_seconds(env):
    """Fresh-interpreter import of gptk.cli minus bare start-up, medians of several."""
    bare = median(spawn_seconds(env, "pass") for _ in range(IMPORT_PROBES))
    full = median(spawn_seconds(env, "import gptk.cli") for _ in range(IMPORT_PROBES))
    return full - bare


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.info = {}

    def tally(self, ok):
        self.attempted += 1
        self.failed += not ok

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}


def enough(elapsed, cycles, seconds):
    """Stop after the whole number of cycles whose end falls nearest to ``seconds``."""
    return elapsed + elapsed / cycles / 2 >= seconds


PROBE = [Fraction(i, i + 7) for i in range(1, 60)]
# The probe's mean time per sample on the 2-core host whose figures README.md
# gives: timings there read as measured, on average.
PROBE_REF_S = 0.5e-3


class HostSpeed:
    """The host's speed through a run, sampled with a fixed standard-library probe.

    On a shared host the same code runs up to twice as slow in phases that last
    seconds to minutes, and CPU time slows as much as wall time.  The probe is
    Fraction arithmetic, like gptk's, and never calls gptk.  A sample is the
    fastest of a few back-to-back probes, which drops a cold first one.  The
    mean of the samples, each weighted by the time since the one before, is the
    speed the ops met.  ``factor`` scales the ops' times to the speed at which
    the probe takes PROBE_REF_S.
    """

    def __init__(self, every=0.0):
        self.every = every
        self.samples = []
        self.weights = []
        self.last = perf_counter()

    def sample(self):
        """Sample the host if ``every`` seconds have passed since the last sample."""
        now = perf_counter()
        if now - self.last < self.every:
            return
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            total = Fraction(0)
            for x in PROBE:
                total += x * x - x / 3
            best = min(best, perf_counter() - t0)
        self.samples.append(best)
        self.weights.append(now - self.last)
        self.last = perf_counter()

    def mean(self):
        return sum(w * s for w, s in zip(self.weights, self.samples)) / sum(self.weights)

    def factor(self):
        return PROBE_REF_S / self.mean()


def end_to_end(res, setup_s, latencies, rss_mb, tail, host):
    """Timed metrics are at the reference host speed; raw ones go to the env line."""
    f = host.factor()
    res.metric("setup_s", setup_s, "s")
    res.metric("ops_per_s", len(latencies) / (f * sum(latencies)), "1/s")
    res.metric("op_ms.p50", 1000 * f * percentile(latencies, 0.5), "ms")
    res.metric("op_ms.tail", 1000 * f * percentile(latencies, tail), "ms")
    res.info["host_factor"] = f
    res.info["host_probes"] = len(host.samples)
    res.info["host_probe_ms"] = 1000 * host.mean()
    res.info["raw"] = {"ops_per_s": len(latencies) / sum(latencies),
                       "op_ms.p50": 1000 * percentile(latencies, 0.5),
                       "op_ms.tail": 1000 * percentile(latencies, tail)}
    res.metric("ops_verified_ratio", (res.attempted - res.failed) / res.attempted, "ratio")
    res.metric("peak_rss_mb", rss_mb, "MB")
    res.info["samples"] = len(latencies)


def per_layer(res, tracer, extras):
    for name, unit, get in PER_LAYER:
        res.metric(name, get(tracer, extras), unit)


# ------------------------------------------------------------ in-process workloads

def run_inprocess(name, seed, seconds, trace, res, env):
    from tracer import Tracer, lru_original
    from workloads import WORKLOADS

    from gptk import ous

    wl = WORKLOADS[name]

    def cache():
        d = lru_original(ous.dual_rays).cache_info()
        s = ous._state_vertices.cache_info()
        return (d.hits, d.misses, s.hits, s.misses)

    def clear_caches():
        lru_original(ous.dual_rays).cache_clear()
        ous._state_vertices.cache_clear()

    def setup():
        """The workload's fixed objects and its first cycle of inputs."""
        t0 = perf_counter()
        ctx = wl.setup(seed)
        rng = random.Random(f"{name}:{seed}")
        ops = wl.cycle(ctx, rng)
        return perf_counter() - t0, ctx, rng, ops

    def attempt(op):
        try:
            return op.run()
        except Exception:       # an exception is a failed op; keep going
            traceback.print_exc(file=sys.stderr)
            return None

    def verify(oracle, records):
        for op, out in records:
            ok = False
            if out is not None:
                try:
                    ok = bool(op.check(out[0], out[1], oracle))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
            if not ok:
                print(f"perfbench: wrong answer on {op.kind} {op.key!r:.200}", file=sys.stderr)
            res.tally(ok)

    if not trace:
        times = []
        for _ in range(SETUP_REPEATS):
            probe = import_probe(env)
            clear_caches()
            dt, ctx, rng, ops = setup()
            times.append(probe + dt)
        # Each cycle is checked as soon as it ends, outside the timed span, and
        # its answers are dropped: memory and collector work stay flat however
        # many cycles the run fits.
        keys, latencies, by_kind = hashlib.sha256(), [], {}
        oracle = wl.oracle(ctx)
        host = HostSpeed(every=HOST_EVERY)
        elapsed, cycles = 0.0, 0
        while True:
            start, records = perf_counter(), []
            for op in ops:
                keys.update(repr(op.key).encode())
                host.sample()
                t0 = perf_counter()
                out = attempt(op)
                dt = perf_counter() - t0
                latencies.append(dt)
                by_kind[op.kind] = by_kind.get(op.kind, 0) + dt
                records.append((op, out))
            elapsed += perf_counter() - start
            verify(oracle, records)
            cycles += 1
            if enough(elapsed, cycles, seconds):
                break
            ops = wl.cycle(ctx, rng)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        end_to_end(res, median(times), latencies, rss_mb, TAIL[name], host)
        res.info["seconds_by_kind"] = by_kind
        res.info["input_digest"] = keys.hexdigest()
        return

    tracer = Tracer()
    tracer.install()
    cache_delta = [0, 0, 0, 0]

    def counted(fn):
        before = cache()
        out = fn()
        for i, (a, b) in enumerate(zip(before, cache())):
            cache_delta[i] += b - a
        return out

    clear_caches()
    t0 = perf_counter()
    _, ctx, _, ops = counted(setup)
    traced = []
    for i, op in enumerate(ops):
        tracer.op = i
        traced.append((op, counted(lambda: attempt(op))))
    t_traced = perf_counter() - t0
    tracer.uninstall()

    clear_caches()
    t0 = perf_counter()
    _, _, _, plain_ops = setup()
    plain = [attempt(op) for op in plain_ops]
    t_plain = perf_counter() - t0

    verify(wl.oracle(ctx), traced)
    for (op, out), again in zip(traced, plain):
        same = out is not None and again is not None and repr(out[0]) == repr(again[0])
        if not same:
            print(f"perfbench: traced and untraced answers differ on {op.kind}", file=sys.stderr)
        res.tally(same)
    res.info["input_digest"] = digest(op.key for op, _ in traced)
    res.info["ops"] = len(traced)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace_{name}_{seed}.jsonl.gz")
    per_layer(res, tracer, {"cache": cache_delta, "import_s": 0.0,
                            "overhead": t_traced / t_plain - 1})


# ------------------------------------------------------------ cli_suite

def run_cli(seed, seconds, trace, res, env):
    import cli_suite as cs
    from tracer import Tracer

    digests = cs.load_digests()
    rng = random.Random(f"cli_suite:{seed}")

    def order():
        cmds = list(cs.COMMANDS)
        rng.shuffle(cmds)
        return cmds

    if not trace:
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            import_probe(env)
            cmds = order()
            times.append(perf_counter() - t0)
        latencies, keys = [], []
        host = HostSpeed()
        start, passes = perf_counter(), 0
        while True:
            for argv in cmds:
                host.sample()
                dt, code, out = cs.run_command(ROOT, env, argv)
                latencies.append(dt)
                keys.append(argv)
                ok = cs.matches(digests, argv, code, out)
                if not ok:
                    print(f"perfbench: report differs for {cs.digest_key(argv)}", file=sys.stderr)
                res.tally(ok)
            passes += 1
            if enough(perf_counter() - start, passes, seconds):
                break
            cmds = order()
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        end_to_end(res, median(times), latencies, rss_mb, TAIL["cli_suite"], host)
        res.info["input_digest"] = digest(keys)
        return

    tracer = Tracer()
    cache_delta = [0, 0, 0, 0]
    OUT.mkdir(exist_ok=True)
    summary_path = OUT / f"cli_child_{seed}.json"
    t_traced = t_plain = 0.0
    cmds = order()
    for i, argv in enumerate(cmds):
        dt, code, out = cs.run_command(ROOT, env, argv, traced_summary=summary_path)
        t_traced += dt
        wrote = summary_path.exists()     # a child that raised wrote no summary
        if wrote:
            summary = json.loads(summary_path.read_text())
            summary_path.unlink()
            tracer.merge(summary, op=i)
            cache_delta = [a + b for a, b in zip(cache_delta, summary["cache"])]
        dt2, code2, out2 = cs.run_command(ROOT, env, argv)
        t_plain += dt2
        res.tally(wrote and cs.matches(digests, argv, code, out))
        res.tally(code2 == code and out2 == out)
    res.info["input_digest"] = digest(cmds)
    res.info["ops"] = len(cmds)
    tracer.dump(OUT / f"trace_cli_suite_{seed}.jsonl.gz")
    per_layer(res, tracer, {"cache": cache_delta, "import_s": import_seconds(env),
                            "overhead": t_traced / t_plain - 1})


# ------------------------------------------------------------ entry point

def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "gptk" / "__init__.py").is_file() or not (ROOT / "models").is_dir():
        print(f"perfbench: no gptk sources under {ROOT}; run from a gptk checkout",
              file=sys.stderr)
        return 2

    # Set iteration order inside gptk follows the hash seed; pin it to the
    # run's seed so that one seed gives one sequence of operations.
    hashseed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hashseed:
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env(hashseed))

    env = child_env(hashseed)
    res = Result()
    if args.workload == "cli_suite":
        run_cli(args.seed, args.seconds, args.trace, res, env)
    else:
        run_inprocess(args.workload, args.seed, args.seconds, args.trace, res, env)

    res.info.update({
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "GPTK_EVENT_CAP_set": "GPTK_EVENT_CAP" in os.environ,
        "commit": git_commit(), "source_sha256": source_digest(),
    })
    print(json.dumps({"perfbench_env": res.info}, sort_keys=True))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
