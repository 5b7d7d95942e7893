"""The ``cli_suite`` workload: the acceptance suite's 20 CLI commands as fresh processes.

Each command runs as ``python -m gptk ...`` from the repository root, one
after another, in whole passes over the suite.  Its stdout and exit code
must match the digests in ``cli_digests.json``, recorded from the reports
these commands print; reports are byte-identical by contract.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# The CLI_SUITE list of tests/test_acceptance.py, model paths relative to the root.
COMMANDS = (
    ("validate", "models/bit.json"),
    ("validate", "models/grid.json"),
    ("validate", "models/gbit_pair.json"),
    ("states", "models/bit.json", "bit"),
    ("states", "models/gbit_pair.json", "gbit"),
    ("weights", "models/bit.json", "coin"),
    ("weights", "models/grid.json", "grid"),
    ("weights", "models/grid.json", "triangle"),
    ("modj", "models/bit.json", "bit", "delta", "--lemma1"),
    ("logic", "models/bit.json", "coin"),
    ("logic", "models/bit.json", "--star", "chain2", "chain2"),
    ("logic", "models/bit.json", "coin", "--iso-check", "bit", "--chain", "2"),
    ("channel", "models/bit.json", "avg", "--induce", "delta"),
    ("channel", "models/bit.json", "half"),
    ("kernel-compose", "models/bit.json", "k", "j"),
    ("compose", "models/bit.json", "rmin", "delta", "delta", "--check-monoidality", "--flags"),
    ("tensor", "models/bit.json", "bit", "bit", "--cone", "min", "--vector", "1,0,0,1"),
    ("tensor", "models/gbit_pair.json", "gbit", "gbit", "--cone", "max",
     "--vector", "1,0,0,0,0,0,0,0,0"),
    ("dacey", "models/bit.json", "triple", "--weight", "F", "--derandomize", "--state", "s1"),
    ("--json", "states", "models/bit.json", "bit"),
)


def digest_key(argv):
    return " ".join(argv)


def load_digests():
    return json.loads((HERE / "cli_digests.json").read_text())


def run_command(root, env, argv, traced_summary=None):
    """Run one command in a fresh interpreter; returns (seconds, exit code, stdout)."""
    if traced_summary is None:
        cmd = [sys.executable, "-m", "gptk", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(traced_summary), *argv]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, check=False)
    return perf_counter() - t0, proc.returncode, proc.stdout


def matches(digests, argv, code, stdout):
    want = digests.get(digest_key(argv))
    return (want is not None and code == want["exit"]
            and hashlib.sha256(stdout).hexdigest() == want["stdout_sha256"])
