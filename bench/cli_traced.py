"""Run ``heunalg.cli`` with layer spans recorded, for traced CLI tasks.

Usage: python cli_traced.py SPANFILE CLI-ARGS...

Installs the tracer, runs ``heunalg.cli.main`` on CLI-ARGS, writes the spans
and counters to SPANFILE as JSON and exits with the CLI's exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import heunalg  # noqa: E402
import heunalg.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    span_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(heunalg)
    tracer.active = True
    try:
        code = heunalg.cli.main(argv)
    finally:
        tracer.active = False
        with open(span_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
