"""Self-tests of the benchmark's wrappers, trace accounting and output checks.

    python -m pytest -q bench/test_bench.py

They run on a 128x128 model so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import PER_LAYER_UNITS, per_layer_metrics  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

pkg = run.load_package()
E, M = pkg.experiments, pkg.model

TINY = M.ModelConfig(input_height=128, input_width=128, base_channels=8,
                     feature_channels=16, num_classes=4, ppm_bins=(1, 2), seed=11)


def tiny_spec(pipelines=("full_tx", "split"), images=2, snrs=(5.0, 20.0)):
    return E.ExperimentSpec(model=TINY, modulations=("qpsk",), snr_db=snrs,
                            pipelines=pipelines, num_images=images, master_seed=3)


def traced_sweep(spec, tmp_path, workers=1):
    tracer = Tracer(pkg, tmp_path / "spool")
    with tracer:
        root = tracer.open_span("sweep")
        results = E.sweep(spec, workers=workers)
        tracer.close_span(root)
    return results, {"root": root, "processes": [tracer.spans] + tracer.collect_workers()}


def csv_bytes(results, directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    for r in results:
        E.write_csv(r, directory / f"sweep_{r.modulation}.csv")
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def wrapped_attributes():
    return {
        (mod, fn): getattr(getattr(pkg, mod), fn)
        for mod, fns in LAYERS.items() for fn in fns if hasattr(getattr(pkg, mod), fn)
    }


def test_forward_calls_are_references_plus_trials(tmp_path):
    spec = tiny_spec()
    _, trace = traced_sweep(spec, tmp_path)
    calls = Counter(s.name for s in trace["processes"][0])
    trials = len(spec.snr_db) * spec.num_images
    assert calls["experiments.run_full_tx"] == trials
    assert calls["experiments.run_split"] == trials
    # noiseless_output references, then one full pass per full_tx trial
    assert calls["model.forward_full"] == spec.num_images + trials
    # every full pass runs the transmitter half, and so does every split trial
    assert calls["model.forward_transmitter"] == spec.num_images + 2 * trials
    assert calls["model.forward_receiver"] == spec.num_images + 2 * trials


def test_traced_sweep_writes_the_same_csv_bytes(tmp_path):
    spec = tiny_spec(pipelines=("traditional", "full_tx", "split"))
    plain = csv_bytes(E.sweep(spec), tmp_path / "plain")
    traced, _ = traced_sweep(spec, tmp_path)
    assert csv_bytes(traced, tmp_path / "traced") == plain


def test_wrappers_are_removed_on_exit_and_on_error(tmp_path):
    before = wrapped_attributes()
    tracer = Tracer(pkg, tmp_path / "spool")
    with tracer:
        assert pkg.tensor_ops.conv2d is not before[("tensor_ops", "conv2d")]
    assert wrapped_attributes() == before
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    after = wrapped_attributes()
    assert all(after[k] is before[k] for k in before)


def test_every_conv_call_matches_its_plan(tmp_path):
    spec = tiny_spec(pipelines=("split",), images=1, snrs=(20.0,))
    _, trace = traced_sweep(spec, tmp_path)
    metrics, tables = per_layer_metrics(pkg, spec, [trace])
    assert tables["untagged_conv_calls"] == 0
    assert [r["name"] for r in tables["conv_plans"]] == [p.name for p in M.layer_plan(TINY)]
    assert all(r["macs_match_shapes"] for r in tables["conv_plans"])
    # one reference pass plus one split trial: every plan ran twice
    assert all(r["calls_per_sweep"] == 2 for r in tables["conv_plans"])
    stage_s = sum(metrics[f"model.stage{k}.conv_s"] for k in range(7))
    assert stage_s == pytest.approx(metrics["tensor_ops.conv2d.s"])
    run_side = {"trace.trials_per_ref_s", "trace.untraced_trials_per_ref_s", "trace.overhead_share"}
    assert set(metrics) == set(PER_LAYER_UNITS) - run_side
    assert 0.0 < metrics["trace.top_level_coverage"] <= 1.0


def test_self_time_is_duration_minus_children(tmp_path):
    spec = tiny_spec(pipelines=("split",), images=1, snrs=(20.0,))
    _, trace = traced_sweep(spec, tmp_path)
    _, tables = per_layer_metrics(pkg, spec, [trace])
    rows = {r["name"]: r for r in tables["layers"]}
    full = rows["model.forward_full"]
    # forward_full does nothing but call the two halves
    assert full["self_s"] < 0.05 * full["incl_s"]
    conv = rows["tensor_ops.conv2d"]
    assert conv["self_s"] == pytest.approx(conv["incl_s"])


def test_worker_spans_are_collected(tmp_path):
    spec = tiny_spec()
    plain = csv_bytes(E.sweep(spec), tmp_path / "plain")
    results, trace = traced_sweep(spec, tmp_path, workers=2)
    assert csv_bytes(results, tmp_path / "traced") == plain
    workers = trace["processes"][1:]
    assert workers, "no worker wrote its spans"
    calls = Counter(s.name for spans in workers for s in spans)
    trials = len(spec.snr_db) * spec.num_images
    assert calls["experiments.run_full_tx"] == trials
    # each worker builds its own weights and references
    assert calls["model.forward_full"] == trials + calls["model.build"] * spec.num_images
    assert calls["model.build"] == len(workers)


def test_check_sweep_flags_bad_outputs(tmp_path):
    spec = tiny_spec(images=1, snrs=(20.0,))
    results = E.sweep(spec)
    assert run.check_sweep(pkg, spec, results, tmp_path).problems == []
    results[0].bits_per_image["split"] += 1
    results[0].miou_median["full_tx"][0] = float("nan")
    results[0].miou_mean["split"][0] = 1.5
    assert len(run.check_sweep(pkg, spec, results, tmp_path).problems) == 3


def _ok_run(csv="a", ext="b"):
    return run.SweepRun(1.0, False, True, run.SweepCheck([], csv, ext))


def test_tally_fails_every_trial_on_digest_mismatch():
    runs = [_ok_run(), _ok_run()]
    assert run.tally(10, runs, None) == (20, 0, ("a", "b"))
    assert run.tally(10, runs, {"csv_sha256": "a", "ext_sha256": "b"})[:2] == (20, 0)
    assert run.tally(10, runs, {"csv_sha256": "x", "ext_sha256": "b"})[:2] == (20, 20)
    assert run.tally(10, [_ok_run(), _ok_run(csv="c")], None)[:2] == (20, 20)
    failed_sweep = run.SweepRun(1.0, False, False)
    assert run.tally(10, [_ok_run(), failed_sweep], None)[:2] == (20, 10)


def test_result_line_has_exactly_the_contract_keys():
    record = {"failed": 0, "attempted": 48,
              "end_to_end": {k: 1.0 for k in run.END_TO_END_UNITS}}
    line = run.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
