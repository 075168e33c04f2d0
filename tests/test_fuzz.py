"""Property tests over files the tool reads: config files and checkpoint
headers.  Each drawn file either works or is rejected as a bad input; none
raises, and none sizes an allocation by its own header.

The settings are fixed so the suite stays deterministic and keeps no
example database, and hypothesis's own cache goes to a temporary directory
instead of ``.hypothesis/`` in the working directory.
"""

import contextlib
import io
import struct
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from stagemask import cli
from stagemask.config import _MODEL_KEYS, _TRAIN_KEYS
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
