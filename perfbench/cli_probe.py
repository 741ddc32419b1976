"""`python -m recinacc ARGS` for the traced cli run, with its phases timed.

    python -X importtime perfbench/cli_probe.py ARGS

does what `python -m recinacc ARGS` does and prints, as the last line of
standard error, `PROBE {json}` with the wall time at which this script
started and the milliseconds spent importing the CLI and running the
command.  Standard output is the CLI's own.
"""

import time

START = time.time()

import json  # noqa: E402
import sys  # noqa: E402

t0 = time.perf_counter()
import recinacc.cli as cli  # noqa: E402

t1 = time.perf_counter()
try:
    code = cli.main(sys.argv[1:])
finally:
    t2 = time.perf_counter()
    sys.stdout.flush()
    print("PROBE " + json.dumps({"start": START, "import_ms": (t1 - t0) * 1e3,
                                 "command_ms": (t2 - t1) * 1e3}), file=sys.stderr)
sys.exit(code)
