"""Batch command-line surface.

Subcommands: info, synth, mix, train, enhance, eval, spec-dump.  Every
command is a single deterministic batch run: identical inputs and seeds give
byte-identical outputs.  Exit codes: 0 success, 2 usage error or bad input
(any ``InputError``, which every reader raises naming its file), 3 runtime
error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import audio, dsp, metrics
from .blocks import receptive_field
from .config import default_run_config, parse_config_file
from .dsp import InputError
from .model import MultiStageModel
from .train import TrainingDivergedError, fit, load_checkpoint

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


@contextlib.contextmanager
def _about(where: str):
    """Name the input file(s) ``where`` in an InputError about their content."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _load_pairs(manifest_path: str, fft_size: int, scored: bool):
    """(noisy, clean) waveforms of every manifest item.

    Every file must share one sample rate, each pair one length of at least
    ``fft_size`` samples, and a ``scored`` clean reference must not be
    silent; otherwise InputError names the item and both files.
    """
    rows = audio.read_manifest(manifest_path)
    if not rows:
        raise InputError(f"{manifest_path}: manifest is empty")
    base = os.path.dirname(os.path.abspath(manifest_path))
    pairs = []
    for item, (clean_path, noisy_path, _) in enumerate(rows, start=1):
        clean_path = os.path.join(base, clean_path)
        noisy_path = os.path.join(base, noisy_path)
        clean = audio.read_wav(clean_path)
        noisy = audio.read_wav(noisy_path)
        rate = pairs[0][0].sample_rate if pairs else noisy.sample_rate
        if {noisy.sample_rate, clean.sample_rate} != {rate}:
            problem = (f"sample rates {noisy.sample_rate} Hz (noisy) and "
                       f"{clean.sample_rate} Hz (clean); the first item's is {rate} Hz")
        elif len(noisy) != len(clean):
            problem = f"noisy/clean length mismatch: {len(noisy)} vs {len(clean)}"
        elif len(noisy) < fft_size:
            problem = f"shorter ({len(noisy)}) than one frame ({fft_size})"
        elif scored and not clean.samples.any():
            problem = "clean reference is silent, so SI-SDR is undefined"
        else:
            pairs.append((noisy, clean))
            continue
        raise InputError(
            f"{manifest_path}: item {item}: {problem}: "
            f"noisy {noisy_path}, clean {clean_path}"
        )
    return pairs


# -- commands ---------------------------------------------------------------

def cmd_info(args) -> int:
    cfg = parse_config_file(args.config).model
    rows = {
        "fft_size": cfg.fft_size, "hop": cfg.hop, "freq_bins": cfg.freq_bins,
        "stages": cfg.stages, "stacks_per_stage": cfg.stacks,
        "blocks_per_stack": cfg.blocks_per_stack, "kernel": cfg.kernel,
        "fusion_blocks": cfg.num_fusions,
        "receptive_field_frames": receptive_field(cfg.kernel, cfg.blocks_per_stack),
    }
    rows.update((f"params_{part}", n) for part, n in cfg.parameter_counts().items())
    for key, value in rows.items():
        print(f"{key}: {value}")
    return EXIT_OK


def cmd_synth(args) -> int:
    items = audio.synth_toy_dataset(args.n, seed=args.seed)
    os.makedirs(args.outdir, exist_ok=True)
    rows = []
    for i, item in enumerate(items):
        clean_name = f"clean_{i:03d}.wav"
        noisy_name = f"noisy_{i:03d}.wav"
        audio.write_wav(os.path.join(args.outdir, clean_name), item.clean)
        audio.write_wav(os.path.join(args.outdir, noisy_name), item.noisy)
        rows.append((clean_name, noisy_name, item.snr_db))
    audio.write_manifest(os.path.join(args.outdir, "manifest.tsv"), rows)
    return EXIT_OK


def cmd_mix(args) -> int:
    clean = audio.read_wav(args.clean)
    noise = audio.read_wav(args.noise)
    with _about(f"{args.clean}, {args.noise}"):
        noisy = audio.mix_at_snr(clean, noise, args.snr)
    audio.write_wav(args.out, noisy)
    return EXIT_OK


def cmd_train(args) -> int:
    run = parse_config_file(args.config)
    manifest = args.data or run.train_manifest
    out = args.out or run.checkpoint
    if manifest is None:
        raise InputError("no training manifest (pass --data or set train_manifest)")
    if out is None:
        raise InputError("no checkpoint path (pass --out or set checkpoint)")
    pairs = _load_pairs(manifest, run.model.fft_size, scored=False)
    model = MultiStageModel(run.model)
    records = fit(model, pairs, run.train, checkpoint_path=out)
    for record in records:
        print(record.line())
    return EXIT_OK


def cmd_enhance(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    wav = audio.read_wav(args.infile)
    with _about(args.infile):
        enhanced, _ = model.enhance(wav)
    audio.write_wav(args.out, enhanced)
    return EXIT_OK


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    pairs = _load_pairs(args.manifest, model.config.fft_size, scored=True)
    report = metrics.evaluate_set(model, pairs)
    print(report.to_tsv())
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_spec_dump(args) -> int:
    wav = audio.read_wav(args.infile)
    cfg = (parse_config_file(args.config) if args.config else default_run_config()).model
    with _about(args.infile):
        mag, _ = dsp.stft(wav.samples, dsp.hann_window(cfg.fft_size, cfg.hop))
    with dsp.replacing(args.out, fsync=False) as fh:
        for row in mag:
            fh.write(f"{','.join(repr(float(v)) for v in row)}\n".encode("utf-8"))
    return EXIT_OK


# -- plumbing ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagemask",
        description="Multi-stage spectral-mask speech enhancement toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print model geometry and parameter counts")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("synth", help="generate a synthetic toy dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mix", help="mix clean speech with noise at a target SNR")
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--data", help="manifest path (overrides config)")
    p.add_argument("--out", help="checkpoint path (overrides config)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance one wav with a trained model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("eval", help="evaluate a checkpoint over a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spec-dump", help="dump the magnitude matrix as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_spec_dump)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main():
    sys.exit(run())
