"""Run the pgturan command line with the benchmark's tracer installed.

Usage: python cli_entry.py RECORD_PATH CLI_ARGS...

Behaves like `python -m pgturan.cli CLI_ARGS...` (same stdout and exit
code) and writes this process's spans and counts to RECORD_PATH as JSON.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    record_path = Path(sys.argv[1])
    t0 = time.perf_counter()
    import pgturan.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = pgturan.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    record_path.write_text(json.dumps(tracer.record(import_s)))
    return code


if __name__ == "__main__":
    sys.exit(main())
