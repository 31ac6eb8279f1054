"""One ``hyperreal`` command in a fresh interpreter, with its own timings.

Usage: ``python perfbench/cli_child.py plain|trace <cli arguments...>``

Behaves like ``python -m hyperreal.cli`` (same output, same exit code) and
then writes one report line to standard error: the time of ``cli.run`` and,
with ``trace``, the per-layer span summary.  The library is imported before
the spans are installed, so the import is never traced.
"""

import json
import sys
import time

REPORT = "@@bench-report "


def main():
    from hyperreal import cli

    tracer = None
    if sys.argv[1] == "trace":
        import hyperreal
        import spans

        tracer = spans.Tracer()
        tracer.install(hyperreal)
    t2 = time.perf_counter()
    code = cli.run(sys.argv[2:])
    t3 = time.perf_counter()
    sys.stdout.flush()
    report = {"run_s": t3 - t2}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
    sys.stderr.write(REPORT + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
