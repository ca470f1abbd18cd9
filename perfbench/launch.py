"""Start the infsup-lab command line from this source checkout.

    python3 perfbench/launch.py <infsup-lab arguments...>

``cli.py`` has no ``__main__`` guard and no console script may be installed,
so this calls ``infsup_lab.cli.main(argv)`` directly and exits with its code.
The package is imported from ``src/`` next to this directory and nowhere else.

Environment, both set by ``run.py``:

``PERFBENCH_REPORT``
    Path of a JSON file written on exit.  It holds ``entered``, the
    ``time.monotonic()`` reading when ``main`` was entered (the end of
    set-up), ``left``, the reading when it returned, and, when traced, the
    per-function statistics.
``PERFBENCH_TRACE``
    ``1`` wraps the package's functions with ``layertrace.Tracer`` for the
    duration of ``main``.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    sys.path.insert(0, SRC)
    from infsup_lab import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"launch: infsup_lab imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 3

    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    report = {"entered": time.monotonic()}
    try:
        return cli.main(sys.argv[1:])
    finally:
        report["left"] = time.monotonic()
        if tracer is not None:
            tracer.restore()
            report["trace"] = tracer.summary()
        path = os.environ.get("PERFBENCH_REPORT")
        if path:
            with open(path, "w") as fh:
                json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
