"""Snapshot of every option in ``src/``: each parameter default and each
dataclass-field default, found with ``inspect``.

An option doubles the configurations that tests must cover, so an added one
has to be added to ``ALLOWED`` below, where a review sees it.  The fields of
``ModelConfig`` and ``TrainConfig`` are left out: they are the config-file
keys, and their defaults are the documented file defaults.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import stagemask

CONFIG_CLASSES = {"ModelConfig", "TrainConfig"}

ALLOWED = {
    "audio.SynthConfig.duration",
    "audio.SynthConfig.sample_rate",
    "audio.synth_toy_dataset(cfg)",
    "audio.synth_toy_dataset(seed)",
    "cli.run(argv)",
    "train.save_checkpoint(state)",
}


def _defaults(where, fn):
    params = inspect.signature(fn).parameters.values()
    return {f"{where}({p.name})" for p in params if p.default is not p.empty}


def _options():
    found = set()
    for info in pkgutil.iter_modules(stagemask.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"stagemask.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found |= _defaults(where, obj)
            elif inspect.isclass(obj):
                is_dc = dataclasses.is_dataclass(obj)
                if is_dc and name not in CONFIG_CLASSES:
                    found |= {
                        f"{where}.{f.name}" for f in dataclasses.fields(obj)
                        if f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING
                    }
                for attr, member in vars(obj).items():
                    # a dataclass __init__ repeats the field defaults
                    if is_dc and attr == "__init__":
                        continue
                    if inspect.isfunction(member):
                        found |= _defaults(f"{where}.{attr}", member)
    return found


def test_options_match_allow_list():
    found = _options()
    assert sorted(found - ALLOWED) == [], "new options: add to ALLOWED for review"
    assert sorted(ALLOWED - found) == [], "options gone: remove from ALLOWED"
