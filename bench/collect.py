"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --workloads train-toy,eval-short --seeds 0-9 \\
        [--seconds 30] [--trace 0] [--out bench/out/summary.json] \\
        [--against bench/out/earlier-summary.json]

Each (workload, seed) is one ``bench/run.py`` process, run one after the
other; its record in ``bench/out/`` is read back.  For every metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread (Q3 - Q1) / median, and checks each end-to-end spread,
``setup_s`` included, against a third of its bound in BENCHMARK.json.
With ``--against`` it also checks that each end-to-end median is no worse
than that of an earlier summary of the same workload by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def spread_row(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/collect.py")
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds,
               "machine": None, "workloads": {}}
    earlier = (json.loads(Path(args.against).read_text(encoding="utf-8"))["workloads"]
               if args.against else {})
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_one(workload, seed, seconds, args.trace)
            ok &= result["correct"] and result["failed"] == 0
            results.append(result)
            summary["machine"] = summary["machine"] or {
                k: v for k, v in result["machine"].items() if k not in ("seed", "variant")}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v[0]:.6g}" for k, v in result["metrics"].items()
                             if k in bounds), flush=True)
        rows = {}
        # A tail percentile is printed only by runs with enough units.
        for name in [n for n in results[0]["printed"] if all(n in r["printed"] for r in results)]:
            values = [r["printed"][name][0] for r in results]
            rows[name] = spread_row(values) if len(values) >= 2 else {"values": values}
            rows[name]["unit"] = results[0]["printed"][name][1]
            if name in bounds and len(values) >= 2:
                steady = rows[name]["spread"] < bounds[name] / 3
                ok &= steady
                print(f"  {name:24s} median {rows[name]['median']:.6g} "
                      f"spread {rows[name]['spread']:.4f} bound {bounds[name]} "
                      f"{'ok' if steady else 'TOO WIDE'}")
            if name in bounds and name in earlier.get(workload, {}):
                change = rows[name]["median"] / earlier[workload][name]["median"] - 1
                rows[name]["change_vs_earlier"] = change
                agree = (change if lower_is_better[name] else -change) <= bounds[name]
                ok &= agree
                print(f"  {name:24s} median {change:+.4f} vs earlier set "
                      f"{'ok' if agree else 'WORSE THAN BOUND'}")
        summary["workloads"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
