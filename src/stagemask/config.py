"""Plain-text run configuration: `key = value` lines, `#` comment lines.

Unknown keys are rejected with the offending line number, and every value is
validated before any work starts.  A bad file raises ``InputError`` naming
it; a rejected value is reported as ``<path>:<line>: <key>: <problem>``
under the key as the file spells it.
Missing keys fall back to the dataclass defaults of ``ModelConfig`` (the
paper geometry) and ``TrainConfig`` (the standard recipe), which are the only
copies of them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .dsp import InputError, read_text
from .model import FieldError, ModelConfig
from .train import TrainConfig


# file key -> (dataclass field, type)
_MODEL_KEYS = {
    "stages": ("stages", int),
    "hidden": ("hidden", int),
    "bottleneck": ("bottleneck", int),
    "stacks": ("stacks", int),
    "blocks": ("blocks_per_stack", int),
    "kernel": ("kernel", int),
    "fft_size": ("fft_size", int),
    "hop": ("hop", int),
    "seed": ("seed", int),
}
_TRAIN_KEYS = {
    "lr": ("lr", float),
    "beta1": ("beta1", float),
    "beta2": ("beta2", float),
    "adam_eps": ("eps", float),
    "batch": ("batch", int),
    "epochs": ("epochs", int),
    "train_seed": ("seed", int),
    "clip_norm": ("clip_norm", float),
}
_PATH_KEYS = ("train_manifest", "checkpoint")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    train_manifest: str | None
    checkpoint: str | None


def parse_config_file(path: str) -> RunConfig:
    text = read_text(path)
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _MODEL_KEYS and key not in _TRAIN_KEYS and key not in _PATH_KEYS:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise InputError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise InputError(f"{path}:{lineno}: empty value for {key!r}")
        raw[key], lines[key] = value, lineno

    def typed(key, caster):
        try:
            return caster(raw[key])
        except ValueError as exc:
            raise InputError(
                f"{path}:{lines[key]}: {key}: bad value {raw[key]!r}"
            ) from exc

    def build(cls, keys):
        try:
            return cls(**{f: typed(k, c) for k, (f, c) in keys.items() if k in raw})
        except FieldError as exc:
            key = next(k for k, (f, _) in keys.items() if f in exc.fields and k in raw)
            raise InputError(f"{path}:{lines[key]}: {key}: {exc.problem}") from exc

    return RunConfig(
        build(ModelConfig, _MODEL_KEYS), build(TrainConfig, _TRAIN_KEYS),
        raw.get("train_manifest"), raw.get("checkpoint"),
    )


def default_run_config() -> RunConfig:
    return RunConfig(ModelConfig(), TrainConfig(), None, None)
