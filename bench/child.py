"""Child process of the benchmark.

    python3 bench/child.py enhance --stats STATS.json [--trace --request N] -- ARGS...
        Times ``import stagemask.cli``, installs the span wrappers when
        ``--trace`` is given, then calls ``stagemask.cli.run(ARGS)``.  Writes
        the exit code, import time, peak RSS and (traced) spans to STATS.json
        and exits with the CLI's exit code.

    python3 bench/child.py make-checkpoint --out PATH
        Writes a paper-geometry checkpoint from seeded fresh weights.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("enhance")
    p.add_argument("--stats", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--request", type=int, default=0)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("make-checkpoint")
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    if args.command == "make-checkpoint":
        from stagemask.config import default_run_config
        from stagemask.model import MultiStageModel
        from stagemask.train import save_checkpoint

        save_checkpoint(MultiStageModel(default_run_config().model), args.out)
        return 0

    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    start = time.perf_counter_ns()
    import stagemask.cli

    imported = time.perf_counter_ns()
    tracer = None
    if args.trace:
        from spans import IMPORT_SPAN, Tracer

        tracer = Tracer()
        tracer.request = args.request
        tracer.record(IMPORT_SPAN, start, imported)
        tracer.install()
    rc = stagemask.cli.run(cli_args)
    stats = {
        "rc": rc,
        "import_ms": (imported - start) / 1e6,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.export() if tracer is not None else None,
    }
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
