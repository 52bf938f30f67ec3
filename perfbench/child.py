"""Run one tausurvey subcommand in-process through `tausurvey.cli.dispatch`.

    python -X importtime perfbench/child.py SRC_DIR TRACE -- ARGV...

Imports the package from SRC_DIR (refusing any other copy), optionally
installs the tracer, times the dispatch call, writes the subcommand's stdout
bytes to stdout, and ends stderr with one line `PERFBENCH <json>` holding the
exit code, the dispatch time and, when TRACE is 1, the trace summary.
Nothing but the standard library's already-loaded modules is imported before
tausurvey, so `-X importtime` sees the package's imports as a CLI run does.
"""

import os
import sys
import time

src, trace, sep, *argv = sys.argv[1:]
if sep != "--":
    sys.exit("usage: child.py SRC_DIR TRACE -- ARGV...")
sys.path.insert(0, src)

import tausurvey.cli  # noqa: E402

if not os.path.abspath(tausurvey.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"tausurvey imported from {tausurvey.cli.__file__}, not from {src}")

import io  # noqa: E402
import json  # noqa: E402

import tracer as tracing  # noqa: E402

tracer = tracing.install() if trace == "1" else None
out = io.StringIO()
start = time.perf_counter()
code = tausurvey.cli.dispatch(argv, stdout=out)
dispatch_s = time.perf_counter() - start
data = out.getvalue().encode("utf-8")
sys.stdout.buffer.write(data)
sys.stdout.flush()
report = {"code": code, "dispatch_s": dispatch_s}
if tracer is not None:
    report["trace"] = tracing.summarize(tracer, dispatch_s, len(data))
sys.stderr.write("PERFBENCH " + json.dumps(report) + "\n")
