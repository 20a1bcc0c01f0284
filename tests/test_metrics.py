"""Accuracy metric and rate/compute accounting tests."""

import numpy as np
import pytest

from splitseg import metrics
from splitseg import model as M
from splitseg.model import ModelConfig, SegmentationMap


def seg(rows):
    return SegmentationMap(np.asarray(rows, dtype=np.int32))


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        a = seg([[0, 1], [2, 2]])
        cm = metrics.confusion(a, a, 3)
        assert np.array_equal(cm, np.diag([1, 1, 2]))

    def test_hand_counted_case(self):
        ref = seg([[0, 0, 1, 1]])
        pred = seg([[0, 1, 1, 1]])
        cm = metrics.confusion(ref, pred, 2)
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 2 and cm[1, 0] == 0

    def test_row_sums_are_reference_counts(self):
        rng = np.random.default_rng(1)
        ref = seg(rng.integers(0, 5, (13, 9)))
        pred = seg(rng.integers(0, 5, (13, 9)))
        cm = metrics.confusion(ref, pred, 5)
        counts = np.bincount(ref.labels.reshape(-1), minlength=5)
        assert np.array_equal(cm.sum(axis=1), counts)
        assert cm.sum() == 13 * 9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            metrics.confusion(seg([[0]]), seg([[0, 1]]), 2)

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="labels outside"):
            metrics.confusion(seg([[5]]), seg([[0]]), 3)

    def test_merge_by_addition(self):
        rng = np.random.default_rng(2)
        ref1, pred1 = seg(rng.integers(0, 4, (6, 6))), seg(rng.integers(0, 4, (6, 6)))
        ref2, pred2 = seg(rng.integers(0, 4, (6, 6))), seg(rng.integers(0, 4, (6, 6)))
        merged = metrics.confusion(ref1, pred1, 4) + metrics.confusion(ref2, pred2, 4)
        both_ref = seg(np.concatenate([ref1.labels, ref2.labels]))
        both_pred = seg(np.concatenate([pred1.labels, pred2.labels]))
        assert np.array_equal(merged, metrics.confusion(both_ref, both_pred, 4))


class TestMiou:
    def test_hand_derived_case(self):
        # ref [0,0,1,1] vs pred [0,1,1,1]: IoU0 = 1/2, IoU1 = 2/3, mean = 7/12
        cm = metrics.confusion(seg([[0, 0, 1, 1]]), seg([[0, 1, 1, 1]]), 2)
        per_class, mean = metrics.miou(cm)
        assert per_class[0] == pytest.approx(0.5, abs=0)
        assert per_class[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert mean == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_perfect_prediction(self):
        rng = np.random.default_rng(3)
        a = seg(rng.integers(0, 4, (8, 8)))
        per_class, mean = metrics.miou(metrics.confusion(a, a, 4))
        assert mean == 1.0
        for k in range(4):
            if per_class[k] is not None:
                assert per_class[k] == 1.0

    def test_disjoint_prediction(self):
        ref = seg([[0, 0], [0, 0]])
        pred = seg([[1, 1], [1, 1]])
        _, mean = metrics.miou(metrics.confusion(ref, pred, 2))
        assert mean == 0.0

    def test_absent_class_modes(self):
        cm = metrics.confusion(seg([[0, 1]]), seg([[0, 1]]), 4)
        per_class, mean = metrics.miou(cm)
        assert per_class[2] is None and per_class[3] is None
        assert mean == 1.0

    def test_all_absent_is_nan(self):
        per_class, mean = metrics.miou(np.zeros((3, 3), dtype=np.int64))
        assert all(v is None for v in per_class)
        assert np.isnan(mean)
        assert mean != 0.0  # NaN is distinct from a genuine zero

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        k = 6
        for _ in range(100):
            ref = rng.integers(0, k, (10, 10)).astype(np.int32)
            pred = rng.integers(0, k, (10, 10)).astype(np.int32)
            perm = rng.permutation(k).astype(np.int32)
            _, base = metrics.miou(metrics.confusion(seg(ref), seg(pred), k))
            _, permuted = metrics.miou(metrics.confusion(seg(perm[ref]), seg(perm[pred]), k))
            assert permuted == pytest.approx(base, abs=1e-12)

    def test_iou_bounds_and_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ref = seg(rng.integers(0, 5, (7, 7)))
            pred = seg(rng.integers(0, 5, (7, 7)))
            per_class, mean = metrics.miou(metrics.confusion(ref, pred, 5))
            for v in per_class:
                if v is not None:
                    assert 0.0 <= v <= 1.0
            identical = ref.same_as(pred)
            assert (mean == 1.0) == identical


FULL = ModelConfig.full_scale()


class TestBitsAccounting:
    def test_traditional_bits(self):
        assert metrics.bits_per_image("traditional", FULL) == 24 * 1024 * 1024 == 25_165_824

    def test_full_tx_bits(self):
        # ceil(log2 19) = 5 bits per pixel
        assert metrics.bits_per_image("full_tx", FULL) == 5 * 1024 * 1024 == 5_242_880

    def test_split_bits(self):
        # 16x16x512 at 8 bits plus the 96 + 64*512 bit range header
        assert metrics.bits_per_image("split", FULL, 8) == 1_048_576 + 32_864 == 1_081_440

    def test_bitrate(self):
        assert metrics.bitrate_mbps(1_000_000, 2.0) == 2.0

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            metrics.bits_per_image("magic", FULL)


class TestRateReport:
    def test_reduction_vs_traditional(self):
        r = metrics.rate_report(FULL, quant_bits=8)
        expected = 100.0 * (1.0 - 1_081_440 / 25_165_824)
        assert r.reduction_vs_traditional_pct == pytest.approx(expected, abs=1e-9)
        assert r.reduction_vs_traditional_pct >= 91.0
        assert r.reduction_vs_traditional_pct == pytest.approx(95.7, abs=0.05)

    def test_reduction_vs_full_tx(self):
        r = metrics.rate_report(FULL, quant_bits=8)
        expected = 100.0 * (1.0 - 1_081_440 / 5_242_880)
        assert r.reduction_vs_full_tx_pct == pytest.approx(expected, abs=1e-9)
        assert r.reduction_vs_full_tx_pct >= 72.6
        assert r.reduction_vs_full_tx_pct == pytest.approx(79.4, abs=0.05)

    def test_wide_codes_still_beat_traditional(self):
        r = metrics.rate_report(FULL, quant_bits=16)
        assert r.bits_per_image["split"] == 512 * 16 * 16 * 16 + 96 + 64 * 512
        assert r.reduction_vs_traditional_pct >= 91.0

    def test_json_embeds_config(self):
        import json

        d = json.loads(metrics.rate_report(FULL).to_json())
        assert d["config"]["input_height"] == 1024
        assert d["quant_bits"] == 8

    def test_payload_ordering_invariant(self):
        # split < full_tx < traditional for b <= 16 and C5 <= 8*C0 at full scale
        for c0 in (16, 32):
            for c5 in (c0, 4 * c0, 8 * c0):
                cfg = ModelConfig.full_scale(base_channels=c0, feature_channels=c5)
                for b in (4, 6, 8, 16):
                    split = metrics.bits_per_image("split", cfg, b)
                    full_tx = metrics.bits_per_image("full_tx", cfg)
                    trad = metrics.bits_per_image("traditional", cfg)
                    assert split < full_tx < trad


class TestComputeReport:
    def test_traditional_tx_is_zero(self):
        r = metrics.compute_report(ModelConfig())
        assert r.tx_macs["traditional"] == 0
        assert r.rx_macs["full_tx"] == 0

    def test_split_below_full(self):
        for cfg in (ModelConfig(), FULL, ModelConfig(input_height=128, input_width=128,
                                                     base_channels=8, feature_channels=16,
                                                     num_classes=4, ppm_bins=(1, 2))):
            r = metrics.compute_report(cfg)
            assert r.tx_macs["split"] < r.tx_macs["full_tx"]
            assert r.tx_reduction_pct > 0.0

    def test_totals_consistent(self):
        r = metrics.compute_report(ModelConfig())
        total = r.tx_macs["full_tx"]
        assert r.tx_macs["split"] + r.rx_macs["split"] == total
        assert r.rx_macs["traditional"] == total

    def test_each_pipeline_matches_pipeline_macs(self):
        for cfg in (ModelConfig(), FULL):
            r = metrics.compute_report(cfg)
            for p in metrics.PIPELINE_TABLE:
                assert (r.tx_macs[p.name], r.rx_macs[p.name]) == metrics.pipeline_macs(p.name, cfg)

    def test_split_macs_cut_at_the_model_boundary(self):
        for cfg in (ModelConfig(), FULL):
            assert metrics.pipeline_macs("split", cfg) == M.mac_count(cfg, M.SPLIT_BOUNDARY)

    def test_reference_point_present(self):
        r = metrics.compute_report(ModelConfig())
        assert r.reference_tx_reduction_pct == 19.8
