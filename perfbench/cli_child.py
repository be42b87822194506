"""A fresh cli process started by run.py: a set-up probe, or one traced command.

    cli_child.py --t0 T --ready               print the time from spawn to
                                              ``import photonloc.cli`` done
    cli_child.py --spans FILE -- ARGV...      run ``photonloc.cli.main(ARGV)``
                                              with the tracing wrappers

The traced form writes the command's table to stdout exactly as
``python -m photonloc.cli ARGV`` does, and its spans, per-layer totals and
import time to FILE and FILE.jsonl.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, default=None, help="time.monotonic() at spawn")
    parser.add_argument("--ready", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    start = time.monotonic()
    import photonloc.cli

    import_s = time.monotonic() - start
    if args.ready:
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0

    import tracing

    tracer = tracing.Tracer()
    absent = tracer.install()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer.op = 0
    try:
        return photonloc.cli.main(argv)
    finally:
        tracer.op = None
        tracer.dump(args.spans + ".jsonl")
        with open(args.spans, "w") as handle:
            json.dump({"import_s": import_s, "absent": absent, "spans": len(tracer.spans),
                       "totals": tracing.totals(tracer.spans)}, handle)


if __name__ == "__main__":
    sys.exit(main())
