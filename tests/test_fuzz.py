"""Property tests over files the tool reads: config files, WAV files,
manifests, and checkpoint headers and bodies.  Each drawn file either works
or is rejected as a bad input (``InputError``, exit 2) naming the file; none
raises anything else, and none sizes an allocation by its own header.

The settings are fixed so the suite stays deterministic and keeps no
example database, and hypothesis's own cache goes to a temporary directory
instead of ``.hypothesis/`` in the working directory.
"""

import contextlib
import io
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from stagemask import audio, cli
from stagemask.config import _MODEL_KEYS, _TRAIN_KEYS
from stagemask.dsp import InputError, Waveform
from stagemask.train import FormatError, load_checkpoint

FIXTURE = Path(__file__).parent / "fixtures" / "toy_satcn001.ckpt"

# hypothesis caches what it reads of the source under its home directory,
# already while pytest collects; this one is removed when the process exits
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

EDGE_VALUES = st.sampled_from(
    ["-1", "-9223372036854775809", "0", "1", "3", "2147483647", "2147483648",
     "9223372036854775807", "9223372036854775808", "0.5", "1e-300", "nan", "inf",
     "-inf"]
)
CONFIGS = st.dictionaries(
    st.sampled_from(sorted(_MODEL_KEYS) + sorted(_TRAIN_KEYS)),
    EDGE_VALUES | st.integers(-(2**64), 2**64).map(str),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(CONFIGS)
def test_info_exits_0_or_2_on_any_config(values):
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.conf"
        config.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(["info", "--config", str(config)])
    assert rc in (0, 2), err.getvalue()
    if rc == 2:
        # the file, then the line and key of the first value it rejects
        assert err.getvalue().startswith(f"error: {config}:")


FIXTURE_BYTES = FIXTURE.read_bytes()
# eight int32 config fields, the int64 seed, the int32 tensor count
HEADER = struct.unpack_from("<8iqi", FIXTURE_BYTES, 8)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_header_loads_or_raises_format_error(data):
    header = list(HEADER)
    for i in data.draw(st.sets(st.integers(0, 9), min_size=1, max_size=3)):
        half = 2**63 if i == 8 else 2**31
        header[i] = data.draw(st.integers(header[i] - 3, header[i] + 3)
                              | st.integers(-half, half - 1))
    patched = FIXTURE_BYTES[:8] + struct.pack("<8iqi", *header) + FIXTURE_BYTES[52:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ckpt"
        path.write_bytes(patched)
        tracemalloc.start()
        try:
            load_checkpoint(path)
        except FormatError:
            pass
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
    assert peak < 1 << 20


def _records(data):
    """Offsets of the name length, rank and extents of every tensor record."""
    offsets, at = [], 52
    for _ in range(HEADER[-1]):
        name_len = struct.unpack_from("<i", data, at)[0]
        rank = struct.unpack_from("<i", data, at + 4 + name_len)[0]
        extents = struct.unpack_from(f"<{rank}i", data, at + 8 + name_len)
        offsets += [at, at + 4 + name_len]
        offsets += [at + 8 + name_len + 4 * j for j in range(rank)]
        at += 8 + name_len + 4 * rank + 4 * math.prod(extents)
    return offsets


STRUCTURE = _records(FIXTURE_BYTES)
INT32 = st.integers(-(2**31), 2**31 - 1)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_body_loads_or_raises_input_error(data):
    body = bytearray(FIXTURE_BYTES)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.sampled_from(STRUCTURE) | st.integers(52, len(body)))
        edit = data.draw(st.sampled_from(["byte", "int32", "cut", "insert"]))
        if edit == "byte":
            body[at : at + 1] = bytes([data.draw(st.integers(0, 255))])
        elif edit == "int32":
            old = struct.unpack_from("<i", body.ljust(at + 4, b"\0"), at)[0]
            new = data.draw(st.integers(old - 3, old + 3) | INT32)
            body[at : at + 4] = struct.pack("<i", max(-(2**31), min(new, 2**31 - 1)))
        elif edit == "cut":
            del body[at : at + data.draw(st.integers(1, 64))]
        else:
            body[at:at] = data.draw(st.binary(min_size=1, max_size=8))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ckpt"
        path.write_bytes(bytes(body))
        tracemalloc.start()
        try:
            load_checkpoint(path)
        except InputError as exc:
            assert str(exc).startswith(f"{path}: ")
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
    assert peak < 1 << 20


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.run([str(a) for a in argv])
    return rc, err.getvalue()


def _write_wav(path, samples, rate=8000):
    audio.write_wav(path, Waveform(samples, rate))
    return Path(path).read_bytes()


# 640 samples: two frames of the default geometry that spec-dump uses
WAV = _write_wav(Path(_HOME.name) / "base.wav",
                 audio.synth_toy_dataset(1, audio.SynthConfig(0.08))[0].noisy.samples)
UINT32 = st.sampled_from([0, 1, 2, 3, 2**31 - 1, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_spec_dump_exits_0_or_2_on_any_wav(data):
    wav = bytearray(WAV)
    for at in data.draw(st.sets(st.integers(0, 43), max_size=4)):
        wav[at] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):  # one whole header word: a size, rate or id
        struct.pack_into("<I", wav, data.draw(st.sampled_from(range(4, 44, 4))),
                         data.draw(UINT32))
    cut = data.draw(st.none() | st.integers(0, len(wav)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.wav"
        path.write_bytes(bytes(wav[:cut]))
        rc, err = _run(["spec-dump", "--in", path, "--out", Path(tmp) / "o.csv"])
        assert rc in (0, 2), err
        if rc == 2:
            try:  # a readable file shorter than one frame gets the STFT's message
                short = len(audio.read_wav(path)) < 512
            except InputError:
                short = False
            assert ("shorter than one frame" in err) if short else err.startswith(
                f"error: {path}: ")


# files a manifest can name; the fixture checkpoint's frames are 32 samples
EVAL_DIR = Path(_HOME.name) / "eval"
EVAL_DIR.mkdir()
_ITEM = audio.synth_toy_dataset(1, audio.SynthConfig(0.25))[0]
_write_wav(EVAL_DIR / "clean.wav", _ITEM.clean.samples)
_write_wav(EVAL_DIR / "noisy.wav", _ITEM.noisy.samples)
_write_wav(EVAL_DIR / "silent.wav", 0.0 * _ITEM.clean.samples)
_write_wav(EVAL_DIR / "short.wav", _ITEM.noisy.samples[:20])
_write_wav(EVAL_DIR / "fast.wav", _ITEM.noisy.samples, rate=16000)
(EVAL_DIR / "junk.wav").write_bytes(b"RIFF junk")
NAMES = st.sampled_from(["clean.wav", "noisy.wav", "silent.wav", "short.wav", "fast.wav",
                         "junk.wav", "missing.wav", "", "."])
SNRS = st.sampled_from(["0", "-2.5", "1e999", "nan", "x"])
ROWS = st.tuples(NAMES, NAMES, SNRS).map("\t".join)
LINES = st.one_of(ROWS, ROWS, ROWS, st.text(st.sampled_from("ab.w\t0 \xe9"), max_size=12))
MANIFESTS = st.tuples(st.lists(LINES, max_size=3),
                      st.sampled_from(["\n", "\r\n", "\r"]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(MANIFESTS)
def test_eval_exits_0_or_2_on_any_manifest(manifest):
    lines, end = manifest
    path = EVAL_DIR / "manifest.tsv"
    path.write_bytes("".join(line + end for line in lines).encode("utf-8"))
    rc, err = _run(["eval", "--ckpt", FIXTURE, "--manifest", path])
    assert rc in (0, 2), err
    if rc == 2:  # the manifest itself or one of the files it names
        assert err.startswith(f"error: {EVAL_DIR}"), err
