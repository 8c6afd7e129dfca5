"""Traced stand-in for `python -m mgg.cli`, one per solve-files item.

Usage: child.py SUMMARY_JSON CLI_ARGS...

Times `import mgg.cli`, installs the benchmark's layer wrappers, runs
`mgg.cli.main(CLI_ARGS)` and writes the tracer's summary to SUMMARY_JSON.
Exits with the CLI's exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import mgg.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.import_ms.append(import_s * 1000)
    tracer.top_level += import_s
    tracer.install()
    try:
        code = mgg.cli.main(argv)
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    tracer.measure_tables()
    summary = tracer.summary()
    summary["excluded"] = tracer.excluded + time.perf_counter() - t0
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
