"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the ungated context report (transmitter-compute reduction).
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from splitseg import codec, dataio, experiments as E, metrics, model as M, phy
from splitseg.model import ModelConfig, SegmentationMap
from splitseg.phy import QAM16, QPSK, ChannelConfig

DESK = ModelConfig()
FULL = ModelConfig.full_scale()

SWEEP_SEED = 20240917
SNR_GRID = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


def report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


def spearman_snr(snr, values) -> float:
    """Spearman rank correlation vs SNR; exact-tie values (a saturated link
    produces bit-identical outputs at high SNR) are ranked in SNR order."""
    ranks_x = stats.rankdata(snr, method="ordinal")
    ranks_y = stats.rankdata(values, method="ordinal")
    return float(np.corrcoef(ranks_x, ranks_y)[0, 1])


# ---------------------------------------------------------------------------
# criterion 1: split equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_split_equivalence():
    rng = np.random.default_rng(101)
    agreements = []
    for trial in range(20):
        size = int(rng.choice([128, 192, 256]))
        max_bin = size // 64
        cfg = ModelConfig(
            input_height=size, input_width=size,
            base_channels=int(rng.integers(4, 17)),
            feature_channels=int(rng.integers(8, 49)),
            num_classes=int(rng.integers(2, 13)),
            ppm_bins=tuple(range(1, max_bin + 1)),
            seed=int(rng.integers(0, 1 << 48)),
        )
        weights = M.build(cfg)
        img = rng.random((3, size, size), dtype=np.float32)

        # the 1/8-scale head logits and the labels: the final resize is a
        # deterministic function of the head, so this is as strict as
        # comparing full-resolution logits
        head_full, map_full = M.forward_full(img, weights)
        head_split, map_split = M.forward_receiver(M.forward_transmitter(img, weights), weights)
        assert head_full.shape == (cfg.num_classes, size // 8, size // 8)
        assert np.array_equal(head_full, head_split), f"trial {trial}: head logits differ"
        assert map_full.same_as(map_split), f"trial {trial}: maps differ"

        raster = (np.clip(img * 255, 0, 255).transpose(1, 2, 0)).astype(np.uint8)
        res = E.run_split(raster, weights, ChannelConfig(QPSK, 100.0, seed=trial), quant_bits=16)
        assert res.bit_flips == 0
        _, clean = M.forward_full(dataio.raster_to_tensor(raster), weights)
        agreement = float(np.mean(res.label_map.labels == clean.labels))
        agreements.append(agreement)
        assert agreement >= 0.99, f"trial {trial}: agreement {agreement:.4f} < 0.99"
    report(1, f"bitwise split equivalence on 20 configs; "
              f"16-bit quantized agreement min {min(agreements):.4f} >= 0.99")


# ---------------------------------------------------------------------------
# criterion 2: bit-rate reductions
# ---------------------------------------------------------------------------

def test_criterion_2_bitrate_reductions():
    r = metrics.rate_report(FULL, quant_bits=8)
    assert r.bits_per_image["traditional"] == 25_165_824
    assert r.bits_per_image["full_tx"] == 5_242_880
    assert r.bits_per_image["split"] == 1_081_440
    assert r.reduction_vs_traditional_pct >= 91.0
    assert r.reduction_vs_full_tx_pct >= 72.6
    report(2, f"split reduces bits by {r.reduction_vs_traditional_pct:.1f}% vs traditional "
              f"(target >= 91%) and {r.reduction_vs_full_tx_pct:.1f}% vs full-at-tx "
              f"(target >= 72.6%)")


# ---------------------------------------------------------------------------
# criterion 3: channel validity
# ---------------------------------------------------------------------------

def test_criterion_3_channel_validity():
    n = 1_000_000
    rng = np.random.default_rng(303)
    stream = codec.BitStream.from_bits(rng.integers(0, 2, n).astype(np.uint8))

    noiseless = phy.transmit(stream, ChannelConfig(QPSK, 100.0, seed=1))
    assert noiseless.same_as(stream)
    noiseless = phy.transmit(stream, ChannelConfig(QAM16, 100.0, seed=1))
    assert noiseless.same_as(stream)

    points = [(QPSK, 4.0), (QPSK, 8.0), (QPSK, 10.0), (QAM16, 10.0), (QAM16, 14.0)]
    lines = []
    for seed, (mod, snr) in enumerate(points, start=50):
        out = phy.transmit(stream, ChannelConfig(mod, snr, seed=seed))
        measured = np.count_nonzero(stream.to_bits() != out.to_bits()) / n
        p = phy.ber_theoretical(mod, snr)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(measured - p) <= 3.0 * se, (
            f"{mod} at {snr} dB: measured {measured:.3e}, theory {p:.3e}, 3se {3 * se:.3e}"
        )
        lines.append(f"{mod}@{snr:g}dB {measured:.2e}~{p:.2e}")
    report(3, "Monte Carlo BER within 3 binomial SE of theory: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 4: mIoU correctness
# ---------------------------------------------------------------------------

def test_criterion_4_miou_correctness():
    ref = SegmentationMap(np.array([[0, 0, 1, 1]], dtype=np.int32))
    pred = SegmentationMap(np.array([[0, 1, 1, 1]], dtype=np.int32))
    _, mean = metrics.miou(metrics.confusion(ref, pred, 2))
    assert mean == pytest.approx(7.0 / 12.0, abs=1e-15)

    rng = np.random.default_rng(404)
    a = SegmentationMap(rng.integers(0, 5, (16, 16)).astype(np.int32))
    _, perfect = metrics.miou(metrics.confusion(a, a, 5))
    assert perfect == 1.0

    disjoint_ref = SegmentationMap(np.zeros((4, 4), dtype=np.int32))
    disjoint_pred = SegmentationMap(np.ones((4, 4), dtype=np.int32))
    _, zero = metrics.miou(metrics.confusion(disjoint_ref, disjoint_pred, 2))
    assert zero == 0.0

    k = 7
    for _ in range(100):
        ref_l = rng.integers(0, k, (12, 12)).astype(np.int32)
        pred_l = rng.integers(0, k, (12, 12)).astype(np.int32)
        perm = rng.permutation(k).astype(np.int32)
        _, base = metrics.miou(metrics.confusion(SegmentationMap(ref_l), SegmentationMap(pred_l), k))
        _, mapped = metrics.miou(
            metrics.confusion(SegmentationMap(perm[ref_l]), SegmentationMap(perm[pred_l]), k)
        )
        assert mapped == pytest.approx(base, abs=1e-12)
    report(4, "hand case 7/12 exact; perfect=1; disjoint=0; "
              "permutation equivariance over 100 random maps")


# ---------------------------------------------------------------------------
# criterion 5: SNR-sweep shape (fidelity mIoU)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fidelity_sweep():
    spec = E.ExperimentSpec(
        model=DESK,
        modulations=(QPSK, QAM16),
        snr_db=SNR_GRID,
        pipelines=("full_tx", "split"),
        num_images=50,
        master_seed=SWEEP_SEED,
        reference_mode="noiseless_output",
        quant_bits=8,
    )
    results = {r.modulation: r for r in E.sweep(spec, workers=2)}

    # quantization-only ceiling: codec round-trip with no channel in between
    ctx = E._build_context(spec)
    ceilings = []
    for (raster, _), reference in zip(ctx.dataset, ctx.references):
        feats = M.forward_transmitter(dataio.raster_to_tensor(raster), ctx.weights)
        decoded = codec.dequantize_features(codec.quantize_features(feats, spec.quant_bits))
        _, seg = M.forward_receiver(decoded, ctx.weights)
        _, value = metrics.miou(metrics.confusion(reference, seg, DESK.num_classes))
        ceilings.append(value)
    return results, float(np.median(ceilings))


def test_criterion_5a_split_miou_rises_with_snr(fidelity_sweep):
    results, _ = fidelity_sweep
    rhos = {}
    for mod, result in results.items():
        med = result.miou_median["split"]
        assert all(a <= b + 1e-12 for a, b in zip(med, med[1:])), (
            f"{mod}: split medians not non-decreasing: {med}"
        )
        rho = spearman_snr(result.snr_db, med)
        rhos[mod] = rho
        assert rho >= 0.9, f"{mod}: spearman {rho:.3f} < 0.9"
        tie_aware = stats.spearmanr(result.snr_db, med).statistic
        print(f"      [info] {mod} split medians {['%.4f' % v for v in med]} "
              f"rho={rho:.3f} (tie-averaged rho={tie_aware:.3f})")
    report(5, "(a) split fidelity mIoU non-decreasing, Spearman "
              + ", ".join(f"{m}={r:.3f}" for m, r in rhos.items()) + " >= 0.9")


def test_criterion_5b_qpsk_dominates_16qam(fidelity_sweep):
    results, _ = fidelity_sweep
    qpsk = results[QPSK].miou_median["split"]
    qam = results[QAM16].miou_median["split"]
    for snr, a, b in zip(SNR_GRID, qpsk, qam):
        assert a >= b, f"at {snr} dB: qpsk {a:.4f} < 16qam {b:.4f}"
    qpsk_f = results[QPSK].miou_median["full_tx"]
    qam_f = results[QAM16].miou_median["full_tx"]
    full_holds = all(a >= b for a, b in zip(qpsk_f, qam_f))
    report(5, f"(b) qpsk split curve >= 16qam split curve at all {len(SNR_GRID)} "
              f"SNR points (full_tx comparison also holds: {full_holds})")


def test_criterion_5c_high_snr_reaches_quantization_ceiling(fidelity_sweep):
    results, ceiling = fidelity_sweep
    at_30 = results[QPSK].miou_median["split"][-1]
    assert at_30 >= 0.99 * ceiling, f"30 dB qpsk {at_30:.4f} < 0.99 x ceiling {ceiling:.4f}"
    report(5, f"(c) qpsk split mIoU at 30 dB ({at_30:.4f}) >= 0.99 x "
              f"quantization ceiling ({ceiling:.4f})")


# ---------------------------------------------------------------------------
# criterion 6: compute accounting
# ---------------------------------------------------------------------------

# Hand-derived per-layer audit: (stage, layer, k, cin, cout, out_h, out_w).
# Desk config: C0=16, C5=64, K=8, 256x256 input, ppm bins (1, 2, 3, 4).
DESK_AUDIT = [
    (0, "s0.conv1", 3, 3, 16, 128, 128),
    (0, "s0.conv2", 3, 16, 16, 64, 64),
    (1, "s1.rb.conv1", 3, 16, 16, 64, 64),
    (1, "s1.rb.conv2", 3, 16, 16, 64, 64),
    (2, "s2.rb.conv1", 3, 16, 32, 32, 32),
    (2, "s2.rb.conv2", 3, 32, 32, 32, 32),
    (2, "s2.rb.proj", 1, 16, 32, 32, 32),
    (3, "s3.p.conv1", 3, 32, 32, 32, 32),
    (3, "s3.p.conv2", 3, 32, 32, 32, 32),
    (3, "s3.i.conv1", 3, 32, 64, 16, 16),
    (3, "s3.i.conv2", 3, 64, 64, 16, 16),
    (3, "s3.i.proj", 1, 32, 64, 16, 16),
    (3, "s3.d.conv1", 3, 32, 16, 32, 32),
    (3, "s3.d.conv2", 3, 16, 16, 32, 32),
    (3, "s3.d.proj", 1, 32, 16, 32, 32),
    (3, "s3.comp", 1, 64, 32, 16, 16),
    (4, "s4.p.conv1", 3, 32, 32, 32, 32),
    (4, "s4.p.conv2", 3, 32, 32, 32, 32),
    (4, "s4.i.conv1", 3, 64, 128, 8, 8),
    (4, "s4.i.conv2", 3, 128, 128, 8, 8),
    (4, "s4.i.proj", 1, 64, 128, 8, 8),
    (4, "s4.d.conv1", 3, 16, 16, 32, 32),
    (4, "s4.d.conv2", 3, 16, 16, 32, 32),
    (4, "s4.comp", 1, 128, 32, 8, 8),
    (5, "s5.p.reduce", 1, 32, 8, 32, 32),
    (5, "s5.p.conv", 3, 8, 8, 32, 32),
    (5, "s5.p.expand", 1, 8, 32, 32, 32),
    (5, "s5.i.reduce", 1, 128, 32, 8, 8),
    (5, "s5.i.conv", 3, 32, 32, 4, 4),
    (5, "s5.i.expand", 1, 32, 128, 4, 4),
    (5, "s5.i.proj", 1, 128, 128, 4, 4),
    (5, "s5.d.reduce", 1, 16, 4, 32, 32),
    (5, "s5.d.conv", 3, 4, 4, 32, 32),
    (5, "s5.d.expand", 1, 4, 16, 32, 32),
    (5, "s5.fuse", 1, 176, 64, 4, 4),
    (6, "s6.ppm.bin1", 1, 64, 16, 1, 1),
    (6, "s6.ppm.bin2", 1, 64, 16, 2, 2),
    (6, "s6.ppm.bin3", 1, 64, 16, 3, 3),
    (6, "s6.ppm.bin4", 1, 64, 16, 4, 4),
    (6, "s6.ppm.fuse", 1, 128, 64, 4, 4),
    (6, "s6.head1", 3, 64, 16, 32, 32),
    (6, "s6.head2", 1, 16, 8, 32, 32),
]

# Full-scale config: C0=32, C5=512, K=19, 1024x1024 input, ppm bins (1, 2, 3, 6).
FULL_AUDIT = [
    (0, "s0.conv1", 3, 3, 32, 512, 512),
    (0, "s0.conv2", 3, 32, 32, 256, 256),
    (1, "s1.rb.conv1", 3, 32, 32, 256, 256),
    (1, "s1.rb.conv2", 3, 32, 32, 256, 256),
    (2, "s2.rb.conv1", 3, 32, 64, 128, 128),
    (2, "s2.rb.conv2", 3, 64, 64, 128, 128),
    (2, "s2.rb.proj", 1, 32, 64, 128, 128),
    (3, "s3.p.conv1", 3, 64, 64, 128, 128),
    (3, "s3.p.conv2", 3, 64, 64, 128, 128),
    (3, "s3.i.conv1", 3, 64, 128, 64, 64),
    (3, "s3.i.conv2", 3, 128, 128, 64, 64),
    (3, "s3.i.proj", 1, 64, 128, 64, 64),
    (3, "s3.d.conv1", 3, 64, 32, 128, 128),
    (3, "s3.d.conv2", 3, 32, 32, 128, 128),
    (3, "s3.d.proj", 1, 64, 32, 128, 128),
    (3, "s3.comp", 1, 128, 64, 64, 64),
    (4, "s4.p.conv1", 3, 64, 64, 128, 128),
    (4, "s4.p.conv2", 3, 64, 64, 128, 128),
    (4, "s4.i.conv1", 3, 128, 256, 32, 32),
    (4, "s4.i.conv2", 3, 256, 256, 32, 32),
    (4, "s4.i.proj", 1, 128, 256, 32, 32),
    (4, "s4.d.conv1", 3, 32, 32, 128, 128),
    (4, "s4.d.conv2", 3, 32, 32, 128, 128),
    (4, "s4.comp", 1, 256, 64, 32, 32),
    (5, "s5.p.reduce", 1, 64, 16, 128, 128),
    (5, "s5.p.conv", 3, 16, 16, 128, 128),
    (5, "s5.p.expand", 1, 16, 64, 128, 128),
    (5, "s5.i.reduce", 1, 256, 64, 32, 32),
    (5, "s5.i.conv", 3, 64, 64, 16, 16),
    (5, "s5.i.expand", 1, 64, 256, 16, 16),
    (5, "s5.i.proj", 1, 256, 256, 16, 16),
    (5, "s5.d.reduce", 1, 32, 8, 128, 128),
    (5, "s5.d.conv", 3, 8, 8, 128, 128),
    (5, "s5.d.expand", 1, 8, 32, 128, 128),
    (5, "s5.fuse", 1, 352, 512, 16, 16),
    (6, "s6.ppm.bin1", 1, 512, 128, 1, 1),
    (6, "s6.ppm.bin2", 1, 512, 128, 2, 2),
    (6, "s6.ppm.bin3", 1, 512, 128, 3, 3),
    (6, "s6.ppm.bin6", 1, 512, 128, 6, 6),
    (6, "s6.ppm.fuse", 1, 1024, 512, 16, 16),
    (6, "s6.head1", 3, 512, 128, 128, 128),
    (6, "s6.head2", 1, 128, 19, 128, 128),
]


def audit_totals(table):
    tx = sum(k * k * ci * co * oh * ow for st, _, k, ci, co, oh, ow in table if st <= 5)
    rx = sum(k * k * ci * co * oh * ow for st, _, k, ci, co, oh, ow in table if st == 6)
    return tx, rx


def test_criterion_6_compute_accounting():
    for cfg, table, name in [(DESK, DESK_AUDIT, "desk"), (FULL, FULL_AUDIT, "full")]:
        total_tx, total_rx = M.mac_count(cfg, 6)
        assert total_rx == 0
        for boundary in range(7):
            tx, rx = M.mac_count(cfg, boundary)
            assert tx + rx == total_tx, f"{name}: additivity broken at boundary {boundary}"
        tx5, rx5 = M.mac_count(cfg, 5)
        assert tx5 < total_tx

        audit_tx, audit_rx = audit_totals(table)
        assert tx5 == audit_tx, f"{name}: tx MACs {tx5} != audit {audit_tx}"
        assert rx5 == audit_rx, f"{name}: stage-6 MACs {rx5} != audit {audit_rx}"
        share = rx5 / (tx5 + rx5)
        assert share > 0.0
        r = metrics.compute_report(cfg)
        print(f"      [info] {name}: stage-6 share {100 * share:.1f}%, transmitter-MAC "
              f"reduction {r.tx_reduction_pct:.1f}% "
              f"(reference operating point {r.reference_tx_reduction_pct}%)")
    report(6, "MAC additivity at all boundaries; split tx < full tx; "
              "stage-6 share matches the per-layer audit exactly on both configs")


# ---------------------------------------------------------------------------
# criterion 7: codec exactness
# ---------------------------------------------------------------------------

def test_criterion_7_codec_exactness():
    rng = np.random.default_rng(707)
    for i in range(100):
        h, w = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        img = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
        assert np.array_equal(codec.decode_image(codec.encode_image(img), h, w), img)
        k = int(rng.integers(2, 20))
        seg = SegmentationMap(rng.integers(0, k, size=(h, w)).astype(np.int32))
        out = codec.decode_labelmap(codec.encode_labelmap(seg, k), h, w, k)
        assert out.same_as(seg)

    for b in (4, 6, 8, 16):
        levels = (1 << b) - 1
        for trial in range(8):
            x = (rng.normal(size=(6, 5, 5)) * rng.uniform(0.1, 10)).astype(np.float32)
            p = codec.quantize_features(x, b)
            back = codec.dequantize_features(p)
            for c in range(x.shape[0]):
                bound = (float(p.maxs[c]) - float(p.mins[c])) / (2 * levels)
                err = np.abs(back[c].astype(np.float64) - x[c].astype(np.float64)).max()
                assert err <= bound, f"b={b} trial {trial} ch {c}: {err} > {bound}"
    report(7, "image/label round-trips identity on 100 instances; quantization error "
              "bound holds elementwise for b in {4, 6, 8, 16}")


# ---------------------------------------------------------------------------
# criterion 8: determinism
# ---------------------------------------------------------------------------

CRITERION_8_SPEC = E.ExperimentSpec(
    model=ModelConfig(input_height=128, input_width=128, base_channels=8,
                      feature_channels=16, num_classes=4, ppm_bins=(1, 2), seed=808),
    modulations=(QPSK, QAM16),
    snr_db=(5.0, 20.0),
    pipelines=("traditional", "full_tx", "split"),
    num_images=4,
    master_seed=777,
)

# sha256 of the criterion-8 CSVs (numpy 2.4.6). A change that alters any
# output bit must update these on purpose and bump ARTIFACT_VERSION.
GOLDEN_SHA256 = {
    "sweep_qpsk.csv": "ab9ffc389da926ed14f7effb126d01e7bf8c4bd25001089064a6fc98915932d2",
    "sweep_qpsk_ext.csv": "9ec2352ee3e42436116812e99a49efcb55df75afead77b916968a20f879f4da9",
    "sweep_16qam.csv": "e5320a2727929eec791501c545f7dc1ac6597458ddb26f6b039fde954977bc77",
    "sweep_16qam_ext.csv": "bb0e1b0ca68a4599be5d9eae011f7b36566ea58fbe66b200eb87cc171079db64",
}


def test_criterion_8_sweep_determinism(tmp_path):
    spec = CRITERION_8_SPEC
    runs = {}
    for tag, workers in [("first", 1), ("second", 1), ("parallel", 4)]:
        d = tmp_path / tag
        d.mkdir()
        for result in E.sweep(spec, workers=workers):
            E.write_csv(result, d / f"sweep_{result.modulation}.csv")
        runs[tag] = {
            p.name: p.read_bytes() for p in sorted(d.glob("*.csv"))
        }
    assert runs["first"] == runs["second"], "repeated sweep differs"
    assert runs["first"] == runs["parallel"], "worker count changed the output"
    assert set(runs["first"]) == {
        "sweep_qpsk.csv", "sweep_qpsk_ext.csv", "sweep_16qam.csv", "sweep_16qam_ext.csv",
    }
    report(8, "byte-identical CSVs across repeated sweeps and worker counts 1 vs 4")


def test_criterion_8_golden_digests(tmp_path):
    for result in E.sweep(CRITERION_8_SPEC):
        E.write_csv(result, tmp_path / f"sweep_{result.modulation}.csv")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert digests == GOLDEN_SHA256
    report(8, "sweep CSV bytes match the pinned sha256 digests")
