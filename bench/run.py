"""Benchmark for stagemask: one workload per invocation.

    python3 bench/run.py --workload train-toy|enhance-long|eval-short \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run repeats, with tracing off, a fresh set-up
followed by one timed unit on it, until the units have taken S seconds.
Op and set-up times are reported scaled by a machine-speed probe (see
calibrate.py), with the raw wall times beside them.  With
``--trace 1`` it sets up once with span wrappers installed, runs S/2 seconds
traced and S/2 untraced (for the tracing overhead), and reports per-layer
numbers.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; everything above it
is a human-readable table.  A full record, with the machine, goes to
``bench/out/``.

BLAS runs with nproc threads.  OpenBLAS counts the calling thread in its
pool, and that thread is also the benchmark's single client, so client plus
BLAS pool stay within nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REFERENCE_PROBE_S, Probe

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORK = BENCH / ".work"
# Before each timed unit the run sets up afresh, at least once and until
# SETUP_MIN_S seconds are spent (at most SETUP_MAX times); the unit uses the
# last state.  So set-up is sampled across the whole run, as op time is: on a
# shared machine the speed of a core switches between two levels about 1.6x
# apart for a fraction of a second to a few seconds at a time, and the
# few-ms train-toy set-up timed in one stretch caught one level or the other
# (a 31% spread over ten runs).  A set-up of the paper checkpoint takes longer
# than SETUP_MIN_S and runs once per unit.
SETUP_MAX, SETUP_MIN_S = 500, 0.3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Printed in the result line of an untraced run; BENCHMARK.json lists the same.
# One op is a training step, a request or an item, so every workload reports
# every metric.
END_TO_END = {"norm_ms_per_op_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("train-toy", "enhance-long", "eval-short"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads_in_use(fallback: int) -> int:
    """Ask the loaded OpenBLAS for its pool size; fall back to what we set."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return fallback


def machine_record(seed: int, variant: int, nproc: int, threads: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_use(threads),
        "generator_processes": 1,
        "seed": seed,
        "variant": variant,
    }


def measure(workload, state, ref, seconds: float, probe, before: float,
            tracer=None, fresh_state=None) -> list:
    """Closed loop: start the next unit only while the units' time so far
    plus the last unit's fits in ``seconds`` (always at least one).  With
    ``fresh_state``, each unit runs on the state it returns, called just
    before the unit; its time does not count.  ``before`` is a probe time
    taken before the first unit; the probe runs again after each unit, and a
    unit keeps the mean of the probes around it."""
    units = []
    while not units or sum(u.seconds for u in units) + units[-1].seconds <= seconds:
        if tracer is not None:
            tracer.request = len(units)
        if fresh_state is not None:
            state = None  # free the previous unit's model before setting up
            state = fresh_state()
        unit = workload.run(state, ref, tracer)
        after = probe.probe()
        unit.probe_s = (before + after) / 2
        before = after
        units.append(unit)
    return units


def op_ms(units) -> list[float]:
    """Wall ms per op of each unit."""
    return [1000.0 * u.seconds / u.ops for u in units]


def norm_ms_per_op(units) -> float:
    """Median over units of wall ms per op, each scaled by the reference
    probe time over the probe time around the unit."""
    return statistics.median(ms * REFERENCE_PROBE_S / u.probe_s
                             for ms, u in zip(op_ms(units), units))


def percentile_beyond_10(values: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 21:
        return None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(values)[n - 11]


def prepare() -> tuple[int, int, float]:
    """Pin BLAS threads, put ``src/`` first on the path and import the CLI.

    Returns (nproc, BLAS threads, import ms); raises SystemExit(2) when the
    checkout holds no program source."""
    if not (SRC / "stagemask" / "__init__.py").is_file():
        print(f"error: {SRC / 'stagemask'} not found; run from a checkout that "
              "holds the program's source", file=sys.stderr)
        raise SystemExit(2)
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter_ns()
    import stagemask.cli

    import_ms = (time.perf_counter_ns() - start) / 1e6
    if not Path(stagemask.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported stagemask from {stagemask.cli.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return nproc, threads, import_ms


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc, threads, import_ms = prepare()

    from workloads import VARIANTS, WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    ref = load_reference(variant)
    machine = machine_record(args.seed, variant, nproc, threads)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        with Probe() as probe:
            run = traced_run if args.trace else plain_run
            result = run(workload, ref, variant, args.seconds, work, import_ms, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = result["units"]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.info.get("problems", [])]
    problems += result.get("problems", [])
    correct = failed == 0 and not result.get("problems")

    print(f"workload {args.workload}  seed {args.seed} (input variant {variant})  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    for line in result["table"]:
        print(line)
    print(f"correctness  {attempted - failed}/{attempted} {workload.check_unit} passed"
          f"  error_rate {failed / attempted:g}")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "correct": correct,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": result["metrics"], "printed": result["printed"],
        "units": [{"seconds": u.seconds, "ops": u.ops, "probe_s": u.probe_s}
                  for u in units],
        "setup_seconds": result.get("setup_seconds", []),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if "tracer" in result:
        result["tracer"].write(str(OUT / f"{stem}.spans.json.gz"))

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def plain_run(workload, ref, variant, seconds, work, import_ms, probe) -> dict:
    from workloads import fresh_dir

    blocks: list[list[float]] = []  # wall seconds of the set-ups before each unit

    def fresh_state():
        """Set up at least once and until SETUP_MIN_S seconds are spent, each
        time in a fresh directory that replaces the previous one."""
        block, state = [], None
        blocks.append(block)
        while not block or (sum(block) < SETUP_MIN_S and len(block) < SETUP_MAX):
            state = None  # free the previous repeat's model before the next
            directory = fresh_dir(work, "setup")
            start = time.perf_counter()
            state = workload.setup(directory, variant)
            block.append(time.perf_counter() - start)
        return state

    units = measure(workload, None, ref, seconds, probe, probe.probe(),
                    fresh_state=fresh_state)
    setup_s = [s for block in blocks for s in block]
    # The set-ups before a unit lie between the two probes around it.
    norm_setup = [s * REFERENCE_PROBE_S / u.probe_s
                  for block, u in zip(blocks, units) for s in block]
    per_op = op_ms(units)
    p50 = statistics.median(per_op)
    values = {"norm_ms_per_op_p50": norm_ms_per_op(units),
              "setup_s": statistics.median(norm_setup), "peak_rss_mb": peak_rss_mb(units)}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    printed = dict(metrics)
    printed["wall_ms_per_op_p50"] = (p50, "ms")
    printed["setup_wall_s"] = (statistics.median(setup_s), "s")
    printed["probe_ms_p50"] = (1000.0 * statistics.median(u.probe_s for u in units), "ms")
    printed.update(workload_metrics(workload, units, p50))
    failed = sum(u.failed for u in units)
    printed["error_rate"] = (failed / sum(u.attempted for u in units), "ratio")
    children = [u.info["child"]["import_ms"] for u in units if u.info.get("child")]
    printed["cli_import_ms"] = (statistics.median(children) if children else import_ms, "ms")
    tail = percentile_beyond_10(per_op)
    if tail is not None:
        printed["wall_ms_per_op_tail"] = (tail[1], "ms")
        printed["wall_ms_per_op_tail_pct"] = (tail[0], "%")
    table = [f"{'end-to-end metric':34s} {'value':>14s}  {'unit':7s} samples"]
    samples = {"setup_s": len(setup_s), "setup_wall_s": len(setup_s),
               "cli_import_ms": len(children) or 1}
    for name, (value, unit) in printed.items():
        table.append(f"{name:34s} {value:14.6g}  {unit:7s} {samples.get(name, len(units))}")
    table.append(f"(one op = one {workload.op}; per-unit wall ms/op: "
                 + ", ".join(f"{v:.4g}" for v in per_op) + ")")
    table.append(f"(norm = wall x {1000 * REFERENCE_PROBE_S:g} ms / probe around the unit "
                 "and the set-ups before it; see bench/calibrate.py)")
    return {"units": units, "metrics": metrics, "printed": printed, "table": table,
            "setup_seconds": blocks}


def workload_metrics(workload, units, p50_ms: float) -> dict:
    """The workload's own names for the wall median, plus the quality figure."""
    if workload.name == "train-toy":
        return {"train_steps_per_s": (1000.0 / p50_ms, "1/s"),
                "final_loss": (units[0].info["final_loss"], "loss")}
    if workload.name == "enhance-long":
        return {"enhance_s_p50": (p50_ms / 1000.0, "s")}
    return {"eval_items_per_s": (1000.0 / p50_ms, "1/s")}


def peak_rss_mb(units) -> float:
    """Peak RSS of the process doing the work: the child for enhance-long,
    this process otherwise."""
    children = [u.info["child"]["maxrss_mb"] for u in units if u.info.get("child")]
    if children:
        return max(children)
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(workload, ref, variant, seconds, work, import_ms, probe) -> dict:
    from layers import JSON_PER_LAYER, all_metrics, span_table
    from spans import Tracer, missing_spans, summarize
    from workloads import fresh_dir

    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(fresh_dir(work, "setup"), variant)
        traced = measure(workload, state, ref, seconds / 2, probe, probe.probe(), tracer)
    finally:
        tracer.uninstall()
    plain = measure(workload, state, ref, seconds / 2, probe, probe.probe())
    summary = summarize(tracer)
    ops = sum(u.ops for u in traced)
    traced_p50 = norm_ms_per_op(traced)
    plain_p50 = norm_ms_per_op(plain)
    overhead = 100.0 * (traced_p50 - plain_p50) / plain_p50
    traced_wall_ms = 1000.0 * sum(u.seconds for u in traced) / ops
    ckpt_bytes = traced[-1].info.get("ckpt_bytes", 0)
    per_layer = all_metrics(summary, tracer, ops, ops * workload.items_per_op,
                            sum(u.seconds for u in traced), import_ms, overhead,
                            ckpt_bytes)
    missing = missing_spans(workload.name, summary)
    problems = [f"expected span {name} never fired" for name in missing]

    table = [
        f"traced {len(traced)} units ({ops} {workload.op}s): {traced_p50:.4g} norm ms/"
        f"{workload.op}; untraced {len(plain)} units: {plain_p50:.4g} norm ms/{workload.op}; "
        f"tracing overhead {traced_p50 - plain_p50:+.4g} ms ({overhead:+.3g}%)",
        f"coverage {per_layer['trace.coverage_pct'][0]:.3g}% of timed wall time "
        "is inside top-level spans",
        "",
        f"{'span':40s} {'calls/op':>10s} {'ms/op':>10s} {'self ms/op':>11s} {'self %':>7s}",
    ]
    for name, calls, total_ms, self_ms in span_table(summary, ops):
        table.append(f"{name:40s} {calls:10.4g} {total_ms:10.4g} {self_ms:11.4g} "
                     f"{100 * self_ms / traced_wall_ms:6.2f}%")
    for name, row in sorted(summary["setup"].items()):
        table.append(f"{'(set-up) ' + name:40s} {row['calls']:10d} "
                     f"{row['ns'] / 1e6:10.4g} {row['self_ns'] / 1e6:11.4g}")
    table += ["", f"{'per-layer metric':40s} {'value':>14s}  unit"]
    for name, (value, unit) in per_layer.items():
        table.append(f"{name:40s} {value:14.6g}  {unit}")
    metrics = {name: per_layer[name] for name, _ in JSON_PER_LAYER}
    return {"units": traced + plain, "metrics": metrics, "printed": per_layer,
            "table": table, "problems": problems, "tracer": tracer}


if __name__ == "__main__":
    sys.exit(main())
