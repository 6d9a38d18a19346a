"""Run one ``proxycal`` command with the span tracer installed.

    python3 bench/traced_cli.py SPANS_JSON proxycal-arguments...

Spans and counts stay in memory while the command runs and are written to
``SPANS_JSON`` when it ends. The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import proxycal.cli

from metrics import COUNTED
from tracing import Tracer


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer(COUNTED)
    tracer.install()
    try:
        return proxycal.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main())
