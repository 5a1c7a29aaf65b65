"""Run the qsslab CLI with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py SPANS_OUT LAUNCH_TIME CLI_ARGS...

LAUNCH_TIME is the parent's time.perf_counter() just before it started
this process; the span "cli.startup" runs from it to the end of the qsslab
import (interpreter start plus import). The spans are written to SPANS_OUT
as JSON when the CLI returns. Pool workers the CLI forks record into their
own copies of the tracer, which are never written out.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer, library_modules


def main():
    spans_out, launch, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    modules = library_modules()
    tracer.add_span("cli.startup", launch, time.perf_counter(), -1)
    tracer.install(modules)
    tracer.active = True
    try:
        code = modules["cli"].main(argv)
    finally:
        tracer.active = False
        tracer.restore()
        Path(spans_out).write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
