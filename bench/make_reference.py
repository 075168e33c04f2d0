"""Regenerate ``reference.json``: the outputs the correctness gates expect.

    python3 bench/make_reference.py

Run it at a commit whose outputs are trusted (the references in the repo
were written at the commit that added the benchmark).  For every input
variant it runs each workload's unit once and stores the training losses,
a fingerprint of the enhanced PCM16 output, and the eval SI-SDR/SNR values.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from run import WORK, prepare


def main() -> int:
    prepare()
    from workloads import (
        BENCH, EVAL_ITEMS, EVAL_MEANS, VARIANTS, EnhanceLong, EvalShort, TrainToy,
        fresh_dir, pcm_fingerprint, read_pcm,
    )

    nan = math.nan
    dummy = {
        "train": {"first_loss": nan, "final_loss": nan},
        "enhance": {"samples": [0], "abs_sum": 0},
        "eval": {"si_sdr_enhanced": [nan] * EVAL_ITEMS,
                 "means": {key: nan for key in EVAL_MEANS}},
    }
    WORK.mkdir(exist_ok=True)
    variants = {}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        for variant in range(VARIANTS):
            train_wl, enhance_wl, eval_wl = TrainToy(), EnhanceLong(), EvalShort()
            info = train_wl.run(train_wl.setup(fresh_dir(work, "train"), variant), dummy).info
            entry = {"train": {"first_loss": info["first_loss"],
                               "final_loss": info["final_loss"]}}
            state = enhance_wl.setup(fresh_dir(work, "enhance"), variant)
            enhance_wl.run(state, dummy)
            entry["enhance"] = pcm_fingerprint(*read_pcm(state["out"]))
            info = eval_wl.run(eval_wl.setup(fresh_dir(work, "eval"), variant), dummy).info
            entry["eval"] = {"si_sdr_enhanced": info["si_sdr_enhanced"],
                             "means": info["means"]}
            variants[str(variant)] = entry
            print(f"variant {variant}: final_loss {entry['train']['final_loss']!r}",
                  flush=True)
    lines = [f' "{key}": {json.dumps(entry)}' for key, entry in variants.items()]
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        fh.write('{"variants": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
