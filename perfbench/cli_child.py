"""Run one gptk CLI command under the tracer.

Usage: python cli_child.py SUMMARY_PATH CLI_ARGS...

Installs the tracer, calls ``gptk.cli.main`` with the remaining arguments,
writes the tracer's summary and spans to SUMMARY_PATH as JSON, and exits
with the command's exit code.  stdout carries the command's report alone.
"""

import json
import sys

from tracer import Tracer, lru_original


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from gptk import cli, ous

    def cache():
        d = lru_original(ous.dual_rays).cache_info()
        s = ous._state_vertices.cache_info()
        return (d.hits, d.misses, s.hits, s.misses)

    tracer.op = 0
    before = cache()
    code = cli.main(argv)
    after = cache()
    sys.stdout.flush()
    summary = tracer.summary()
    summary["cache"] = [b - a for a, b in zip(before, after)]
    summary["spans"] = tracer.spans
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
