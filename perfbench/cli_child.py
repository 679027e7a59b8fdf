"""Traced CLI process: ``python perfbench/cli_child.py <toricontact args>``.

Runs ``toricontact.cli.main`` with the tracer installed and active, then
writes its spans and counters as JSON to the file named by
``PERFBENCH_SPANS``.  Stdin, stdout, stderr and the exit code are the
CLI's own, so a traced pipeline prints the same bytes as an untraced one.
"""

import json
import os
import sys

from tracer import Tracer

import toricontact.cli


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.datum = os.environ.get("PERFBENCH_DATUM")
    tracer.active = True
    try:
        return toricontact.cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)


if __name__ == "__main__":
    sys.exit(main())
