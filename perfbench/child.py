"""Run one cubeflags CLI command in a fresh interpreter, as a user would.

Usage: python3 perfbench/child.py <trace 0|1> [cli args...]

stdout is the CLI's own stdout, byte for byte.  With no CLI arguments the
child only imports, and serves as a set-up probe.  After the command, one line
starting with REPORT_MARK goes to stderr with a JSON report: the
perf_counter reading once ``cubeflags.cli`` (numpy included) is imported,
the peak RSS, and with trace 1 the span summary of the command.  On Linux
perf_counter reads the system-wide monotonic clock, so the parent can
subtract its own launch time from the first reading.
"""

import json
import resource
import sys
import time

REPORT_MARK = "\x1eperfbench "


def main() -> int:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    import cubeflags.cli as cli

    ready = time.perf_counter()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    rc = cli.main(argv) if argv else 0
    sys.stdout.flush()
    report = {
        "ready": ready,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracing.summarize(tracer.spans)
    sys.stderr.write("\n" + REPORT_MARK + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
