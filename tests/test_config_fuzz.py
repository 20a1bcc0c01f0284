"""Property tests: any JSON-shaped config gives exit code 0 or 4, never a
traceback, and a spec built in the library is either rejected or survives
its JSON form unchanged."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from splitseg import cli  # noqa: E402
from splitseg.experiments import ExperimentSpec, spec_from_dict  # noqa: E402
from splitseg.model import ModelConfig  # noqa: E402

BASE_MODEL = ModelConfig(input_height=128, input_width=128, ppm_bins=(1, 2))
BASE = ExperimentSpec(model=BASE_MODEL).to_dict()
TOP_KEYS = sorted(BASE)
SECTION_KEYS = {
    "model": sorted({*BASE["model"], "input_size"}),
    "channel": sorted(BASE["channel"]),
}

# Values near the valid ones reach the deeper checks; the rest probe coercion.
PLAUSIBLE = st.sampled_from([
    0, 1, 2, 4, 8, 16, 64, 128, 192, 256, -64, 2 ** 63, 2 ** 64, 10 ** 30, 2 ** 1106,
    0.5, 1.0, 30.0, -1.0, 1e300, 1e999, -1e999, math.nan, True, None,
    "qpsk", "16qam", "split", "full_tx", "traditional", "synthetic",
    "ground_truth", "noiseless_output", "", "8",
])
LEAVES = (
    PLAUSIBLE | st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
DELETE = object()


@st.composite
def configs(draw):
    raw = json.loads(json.dumps(BASE))
    for _ in range(draw(st.integers(1, 4))):
        section = draw(st.sampled_from([None, "model", "channel"]))
        target = raw if section is None else raw.get(section)
        if not isinstance(target, dict):
            target = raw
        keys = TOP_KEYS if target is raw else SECTION_KEYS[section]
        key = draw(st.sampled_from(keys + ["bogus"]))
        value = draw(st.just(DELETE) | JSON_VALUES)
        if value is DELETE:
            target.pop(key, None)
        else:
            target[key] = value
    return raw


def variant(section, key, value):
    raw = json.loads(json.dumps(BASE))
    (raw if section is None else raw[section])[key] = value
    return raw


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(raw=configs())
@hypothesis.example(raw=variant("model", "input_height", 2 ** 1106))
@hypothesis.example(raw=variant("model", "ppm_bins", [1e999]))
@hypothesis.example(raw=variant("model", "seed", 1e999))
@hypothesis.example(raw=variant("channel", "snr_db", [math.nan]))
@hypothesis.example(raw=variant(None, "fps", 1e999))
@hypothesis.example(raw=variant(None, "num_images", "many"))
def test_report_exit_code_is_0_or_4(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))  # inf and nan written as Infinity / NaN
        assert cli.main(["report", "--config", str(path)]) in (cli.EXIT_OK, cli.EXIT_BAD_CONFIG)


# Library values per field: mostly valid ones, in the forms a caller may pass
# to ExperimentSpec directly (numpy scalars and arrays, ranges, tuples), with
# any JSON value mixed in.
LIBRARY_VALUES = {
    "modulations": [["qpsk"], ("16qam", "qpsk"), np.array(["qpsk"]), np.str_("qpsk")],
    "snr_db": [[5, 20.5], np.array([5.0, 20.0]), range(5, 30, 10), (np.float32(1.5),),
               [np.int64(3)], np.array([[1.0]]), [np.bool_(True)]],
    "pipelines": [["split"], np.array(["full_tx", "split"]), ("traditional",)],
    "num_images": [np.int64(2), 1, np.uint64(3), np.float64(1.0)],
    "master_seed": [np.uint64(2 ** 64 - 1), 0, np.int32(5), np.bool_(False)],
    "dataset": [np.str_("synthetic"), "synthetic"],
    "reference_mode": [np.str_("ground_truth"), "noiseless_output"],
    "quant_bits": [np.int32(8), 4, np.int64(16), np.float32(8.0)],
    "frames_per_second": [np.float32(0.5), 30, np.int64(2), np.float64(1e300), np.float16(2.0)],
}


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(fields=st.fixed_dictionaries({}, optional={
    k: st.sampled_from(v) | st.sampled_from(v) | JSON_VALUES for k, v in LIBRARY_VALUES.items()
}))
@hypothesis.example(fields={"num_images": np.int64(1), "snr_db": np.array([5, 20])})
@hypothesis.example(fields={"quant_bits": 8.0})
def test_library_spec_is_rejected_or_round_trips(fields):
    try:
        spec = ExperimentSpec(model=BASE_MODEL, **fields)
    except ValueError:  # ConfigError included
        return
    raw = json.loads(json.dumps(spec.to_dict()))
    assert spec_from_dict(raw) == spec
