"""Child-process entry of the benchmark: runs bipack work, traced on request.

    python3 perfbench/launch.py [--trace FILE --instance N] cli ARG...
    python3 perfbench/launch.py [--trace FILE --instance N] grid|exact INPUT SECONDS RESULT
    python3 perfbench/launch.py grid|exact INPUT --load-only

``cli`` calls ``bipack.cli.main`` with the arguments and exits with its code.
``grid`` and ``exact`` repeat one round of in-process work until SECONDS have
been spent in it and write the per-round results to RESULT; ``--load-only``
stops after loading the input. With ``--trace`` the tracer wraps the program's
functions before any work starts and writes its spans to FILE at exit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--trace", help="write spans to this file at exit")
    parser.add_argument("--instance", type=int, default=0, help="first span instance id")
    parser.add_argument("mode", choices=["cli", "grid", "exact"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.instance)
        tracer.install()
    try:
        if args.mode == "cli":
            from bipack import cli

            return cli.main(args.rest)
        if args.mode == "grid":
            import wl_grid as workload
        else:
            import wl_exact as workload
        if args.rest[1:] == ["--load-only"]:
            workload.load(args.rest[0])
            return 0
        input_path, seconds, result_path = args.rest
        workload.work(input_path, float(seconds), result_path)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
