"""Run one grasstrop CLI request with every public function traced.

Usage: python3 cli_child.py <grasstrop arguments>, with PYTHONPATH naming
the library sources and PERFBENCH_SPANS naming the file that receives the
spans.  Exit code, stdout and stderr are those of `python3 -m grasstrop.cli`,
including the traceback when the command crashes.
"""

import json
import os
import sys
from pathlib import Path

from tracer import Tracer

import grasstrop.cli


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return grasstrop.cli.main(sys.argv[1:])
    finally:
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(tracer.export()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
