"""Pipeline, sweep, dataset, CSV, and plot tests on small fast configs."""

import json
import multiprocessing
import os
import re
import tracemalloc
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from splitseg import codec, dataio, experiments as E, metrics, model as M, phy, tensor_ops
from splitseg.model import ModelConfig
from splitseg.phy import ChannelConfig

TINY = ModelConfig(input_height=128, input_width=128, base_channels=8,
                   feature_channels=16, num_classes=4, ppm_bins=(1, 2), seed=11)


@pytest.fixture(scope="module")
def tiny_weights():
    return M.build(TINY)


@pytest.fixture(scope="module")
def tiny_pair():
    return dataio.generate_synthetic(1, TINY.num_classes, 128, 128, seed=5)[0]


def noiseless(mod=phy.QPSK, seed=1):
    return ChannelConfig(mod, 100.0, seed=seed)


def full_grid_paint_region(labels, rng, num_classes):
    """dataio._paint_region with the ellipse test over the whole (H, W) grid."""
    h, w = labels.shape
    cls = int(rng.integers(num_classes))
    cy = int(rng.integers(h))
    cx = int(rng.integers(w))
    ry = int(rng.integers(max(h // 8, 2), max(h // 3, h // 8 + 1)))
    rx = int(rng.integers(max(w // 8, 2), max(w // 3, w // 8 + 1)))
    if rng.integers(2) == 0:
        y0, y1 = max(cy - ry, 0), min(cy + ry, h)
        x0, x1 = max(cx - rx, 0), min(cx + rx, w)
        labels[y0:y1, x0:x1] = cls
    else:
        yy, xx = np.ogrid[:h, :w]
        mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        labels[mask] = cls


def one_shot_synthetic(n, num_classes, height, width, seed, noise_sigma=8.0):
    """generate_synthetic with full-grid ellipses and the noise of each image
    drawn, added, rounded and clipped in one piece: the bitwise oracle."""
    palette = dataio.class_palette(num_classes)
    out = []
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0, i))))
        background = int(rng.integers(num_classes))
        labels = np.full((height, width), background, dtype=np.int32)
        for _ in range(int(rng.integers(3, 9))):
            full_grid_paint_region(labels, rng, num_classes)
        if np.unique(labels).size < 2:
            labels[: height // 4, : width // 4] = (background + 1) % num_classes
        img = palette[labels].astype(np.float64) + rng.normal(0.0, noise_sigma, (height, width, 3))
        out.append((np.clip(np.rint(img), 0, 255).astype(np.uint8), labels))
    return out


class TestSyntheticData:
    @pytest.mark.parametrize("shape", [(9, 9), (9, 40), (31, 12), (64, 64), (128, 96)])
    def test_regions_match_the_full_grid_oracle(self, shape):
        for seed in range(60):
            a = np.zeros(shape, dtype=np.int32)
            b = a.copy()
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(6):
                dataio._paint_region(a, rng_a, 7)
                full_grid_paint_region(b, rng_b, 7)
            assert np.array_equal(a, b), (shape, seed)

    @pytest.mark.parametrize("n,k,h,w,seed,block_bytes", [
        (3, 5, 64, 64, 3, None),
        (2, 19, 100, 1024, 8, None),  # blocks of 42 rows, partial last block
        (4, 6, 37, 29, 12, 24 * 29 * 5),  # blocks of 5 rows, partial last block
        (2, 4, 9, 9, 1, 1),  # blocks of one row
    ])
    def test_matches_one_shot_oracle(self, monkeypatch, n, k, h, w, seed, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(dataio, "_NOISE_BLOCK_BYTES", block_bytes)
        pairs = dataio.generate_synthetic(n, k, h, w, seed)
        for (raster, seg), (want_raster, want_labels) in zip(pairs, one_shot_synthetic(n, k, h, w, seed)):
            assert raster.dtype == np.uint8 and np.array_equal(raster, want_raster)
            assert np.array_equal(seg.labels, want_labels)

    def test_full_scale_peak_memory(self):
        # labels, raster, np.unique's sorted copy and one noise block; the
        # one-shot form held several 24 MiB float64 images
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dataio.generate_synthetic(1, 19, 1024, 1024, seed=4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 20 << 20

    def test_labels_in_range_and_two_classes(self):
        pairs = dataio.generate_synthetic(8, 5, 64, 64, seed=3)
        for raster, seg in pairs:
            assert raster.dtype == np.uint8 and raster.shape == (64, 64, 3)
            assert seg.labels.min() >= 0 and seg.labels.max() < 5
            assert np.unique(seg.labels).size >= 2

    def test_deterministic(self):
        a = dataio.generate_synthetic(4, 6, 64, 64, seed=12)
        b = dataio.generate_synthetic(4, 6, 64, 64, seed=12)
        for (ra, sa), (rb, sb) in zip(a, b):
            assert np.array_equal(ra, rb) and sa.same_as(sb)

    def test_seed_changes_data(self):
        a = dataio.generate_synthetic(2, 6, 64, 64, seed=12)
        b = dataio.generate_synthetic(2, 6, 64, 64, seed=13)
        assert not np.array_equal(a[0][0], b[0][0])


class TestRasterToTensor:
    @staticmethod
    def oracle(raster):
        # the three-array form: cast, divide, then a contiguous copy
        return np.ascontiguousarray(raster.transpose(2, 0, 1).astype(np.float32) / np.float32(255.0))

    @pytest.mark.parametrize("raster", [
        np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2),  # every byte value
        np.random.default_rng(5).integers(0, 256, (1024, 1024, 3), dtype=np.uint8),
        np.random.default_rng(6).integers(0, 256, (7, 5, 3), dtype=np.uint8)[::-1, ::2],  # strided
    ], ids=["bytes", "full_scale", "strided"])
    def test_matches_the_three_array_form_bitwise(self, raster):
        x = dataio.raster_to_tensor(raster)
        want = self.oracle(raster)
        assert x.dtype == np.float32 and x.flags.c_contiguous
        assert np.array_equal(x.view(np.uint32), want.view(np.uint32))

    def test_full_scale_allocates_one_tensor(self):
        raster = np.zeros((1024, 1024, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dataio.raster_to_tensor(raster)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (12 << 20) + (64 << 10)


class TestDatasetFiles:
    def test_ppm_pgm_round_trip(self, tmp_path):
        pairs = dataio.generate_synthetic(3, 4, 32, 48, seed=9)
        dataio.write_dataset(tmp_path, pairs)
        loaded = dataio.load_dataset_dir(tmp_path)
        assert len(loaded) == 3
        for (ra, sa), (rb, sb) in zip(pairs, loaded):
            assert np.array_equal(ra, rb)
            assert sa.same_as(sb)

    def test_broken_files_reported_per_file(self, tmp_path):
        pairs = dataio.generate_synthetic(2, 4, 32, 32, seed=9)
        dataio.write_dataset(tmp_path, pairs)
        (tmp_path / "img_0001.pgm").unlink()
        (tmp_path / "img_0000.ppm").write_bytes(b"P6\n32 32\n255\nxx")
        with pytest.raises(ValueError) as err:
            dataio.load_dataset_dir(tmp_path)
        msg = str(err.value)
        assert "img_0000.ppm" in msg and "img_0001" in msg

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dataio.load_dataset_dir(tmp_path / "absent")

    @pytest.mark.parametrize("suffix,magic", [(".ppm", "P6"), (".pgm", "P5")])
    @pytest.mark.parametrize("dims,problem", [
        ("99999999999 99999999999", "truncated"),  # more bytes than an index holds
        ("1000000 1000000", "truncated"),  # more than memory holds
        ("0 32", "at least 1"), ("32 -1", "at least 1"),
    ])
    def test_header_dims_are_checked_against_the_file(self, tmp_path, suffix, magic, dims, problem):
        dataio.write_dataset(tmp_path, dataio.generate_synthetic(1, 4, 32, 32, seed=9))
        (tmp_path / f"img_0000{suffix}").write_bytes(f"{magic}\n{dims}\n255\n".encode() + bytes(64))
        with pytest.raises(ValueError, match=f"img_0000.ppm: .*{problem}"):  # problems are named per image
            dataio.load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("magic,load,channels", [
        ("P6", dataio.load_ppm, 3), ("P5", dataio.load_pgm, 1),
    ], ids=["ppm", "pgm"])
    @pytest.mark.parametrize("header", [
        "{magic}\n3#w\n2\n255\n",  # a comment glued to the width
        "{magic}\n3 2#c\n255\n",  # to the height
        "{magic}\n3 2\n255#c\n",  # to the maxval: its newline ends the header
        "{magic}#c\n3#a\n2#b\n255\n",  # to the magic number and every field
        "{magic}\n# made by hand\n3 2\n#\n  # indented\n255\n",  # comment-only lines
        "{magic}\r\n3 2#c\r255\r",  # a carriage return ends a line too
    ], ids=["width", "height", "maxval", "every_field", "comment_lines", "carriage_return"])
    def test_header_comments(self, tmp_path, magic, load, channels, header):
        # netpbm: everything from "#" to the line's end is a comment, also
        # right after a number's digits
        pixels = np.arange(2 * 3 * channels, dtype=np.uint8).reshape(2, 3, channels)
        path = tmp_path / "img"
        path.write_bytes(header.format(magic=magic).encode() + pixels.tobytes())
        assert np.array_equal(load(path), pixels if channels == 3 else pixels[:, :, 0])


class TestPipelines:
    def test_traditional_noiseless_matches_clean_inference(self, tiny_weights, tiny_pair):
        raster, _ = tiny_pair
        res = E.run_traditional(raster, tiny_weights, noiseless())
        _, clean = M.forward_full(dataio.raster_to_tensor(raster), tiny_weights)
        assert res.label_map.same_as(clean)
        assert res.bits_sent == 24 * 128 * 128
        assert res.bit_flips == 0

    def test_full_tx_noiseless_matches_transmitted_map(self, tiny_weights, tiny_pair):
        raster, _ = tiny_pair
        res = E.run_full_tx(raster, tiny_weights, noiseless())
        _, clean = M.forward_full(dataio.raster_to_tensor(raster), tiny_weights)
        assert res.label_map.same_as(clean)
        assert res.bits_sent == codec.label_bits_per_pixel(TINY.num_classes) * 128 * 128

    @pytest.mark.parametrize("quant_bits", codec.STANDARD_QUANT_BITS)
    @pytest.mark.parametrize("pipeline", metrics.PIPELINES)
    def test_bits_formula(self, tiny_weights, tiny_pair, pipeline, quant_bits):
        raster, _ = tiny_pair
        res = E.run(pipeline, raster, tiny_weights, noiseless(), quant_bits)
        c5 = TINY.feature_channels
        # only the stream exposed to noise counts as channel bits: split's
        # 96 + 64 * C range header crosses error-free
        exposed = {"traditional": 24 * 128 * 128,
                   "full_tx": codec.label_bits_per_pixel(TINY.num_classes) * 128 * 128,
                   "split": c5 * 2 * 2 * quant_bits}[pipeline]
        side = 96 + 64 * c5 if pipeline == "split" else 0
        assert res.bits_sent == exposed + side == metrics.bits_per_image(pipeline, TINY, quant_bits)
        assert res.channel_bits == exposed
        assert res.bit_flips == 0
        if pipeline != "split":  # every row receives quant_bits; only split reads it
            base = E.run(pipeline, raster, tiny_weights, noiseless(), 8)
            assert res.label_map.same_as(base.label_map)
            assert (res.bits_sent, res.bit_flips, res.channel_bits) == (
                base.bits_sent, base.bit_flips, base.channel_bits)

    def test_split_noiseless_high_precision_agreement(self, tiny_weights, tiny_pair):
        raster, _ = tiny_pair
        res = E.run_split(raster, tiny_weights, noiseless(), quant_bits=16)
        _, clean = M.forward_full(dataio.raster_to_tensor(raster), tiny_weights)
        agreement = np.mean(res.label_map.labels == clean.labels)
        assert res.bit_flips == 0
        assert agreement >= 0.99

    def test_split_low_snr_degrades(self, tiny_weights, tiny_pair):
        raster, _ = tiny_pair
        noisy = E.run_split(raster, tiny_weights, ChannelConfig(phy.QAM16, 5.0, seed=3), 8)
        assert noisy.bit_flips > 0


def unpacked_flip_count(sent, received):
    """Unpack both streams and compare bit by bit; `_count_flips` must match it."""
    return int(np.count_nonzero(sent.to_bits() != received.to_bits()))


class TestFlipCount:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 1001, 65_536])
    def test_matches_unpacked_oracle(self, n):
        rng = np.random.default_rng(n)
        sent = codec.BitStream.from_bits(rng.integers(0, 2, n).astype(np.uint8))
        for p_flip in (0.0, 0.01, 0.5, 1.0):
            flips = (rng.random(n) < p_flip).astype(np.uint8)
            received = codec.BitStream.from_bits(sent.to_bits() ^ flips)
            assert E._count_flips(sent, received) == unpacked_flip_count(sent, received) == flips.sum()

    def test_pad_bits_never_count(self):
        # BitStream zeroes the pad bits of a partial last byte
        sent = codec.BitStream(5, np.array([0b10101111], dtype=np.uint8))
        received = codec.BitStream(5, np.array([0b10100000], dtype=np.uint8))
        assert E._count_flips(sent, received) == unpacked_flip_count(sent, received) == 1

    def test_every_bit_flipped_over_a_large_stream(self):
        # one image's raw stream; a sum kept in the table's uint8 would wrap
        n = 24 * 256 * 256
        sent = codec.BitStream(n, np.zeros(n // 8, dtype=np.uint8))
        received = codec.BitStream(n, np.full(n // 8, 0xFF, dtype=np.uint8))
        assert E._count_flips(sent, received) == unpacked_flip_count(sent, received) == n


class TestPipelineTable:
    def test_row_order_is_the_substream_index(self):
        assert metrics.PIPELINES == ("traditional", "full_tx", "split")
        for index, name in enumerate(metrics.PIPELINES):
            assert E.trial_seed(7, 1, 2, 3, name) == E.derive_seed(7, 1, 1, 2, 3, index)

    def test_columns_match_the_table(self):
        assert {p.column: p.name for p in metrics.PIPELINE_TABLE} == {
            "miou_f": "full_tx", "miou_n": "traditional", "miou_s": "split",
        }
        assert sorted(p.column for p in metrics.PIPELINE_TABLE) == sorted(E.COLUMNS)
        assert E.CSV_HEADER == "snr," + ",".join(E.COLUMNS)

    @pytest.mark.parametrize("entry_point", ["bits_per_image", "pipeline_macs", "trial_seed", "run", "spec"])
    def test_unknown_name_raises_the_table_message(self, tiny_weights, tiny_pair, entry_point):
        calls = {
            "bits_per_image": lambda: metrics.bits_per_image("bogus", TINY),
            "pipeline_macs": lambda: metrics.pipeline_macs("bogus", TINY),
            "trial_seed": lambda: E.trial_seed(7, 0, 0, 0, "bogus"),
            "run": lambda: E.run("bogus", tiny_pair[0], tiny_weights, noiseless()),
            "spec": lambda: E.ExperimentSpec(model=TINY, pipelines=("split", "bogus")),
        }
        message = f"unknown pipeline 'bogus', expected one of {metrics.PIPELINES}"
        with pytest.raises(ValueError, match=re.escape(message)):
            calls[entry_point]()

    def test_spec_defaults_to_every_pipeline(self):
        assert E.ExperimentSpec(model=TINY).pipelines == metrics.PIPELINES
        assert E.spec_from_dict({"model": {}, "channel": {}}).pipelines == metrics.PIPELINES


class TestSeedDerivation:
    def test_stable_values(self):
        a = E.trial_seed(1234, 0, 1, 2, "split")
        b = E.trial_seed(1234, 0, 1, 2, "split")
        assert a == b

    def test_distinct_across_axes(self):
        base = E.trial_seed(7, 0, 0, 0, "split")
        assert E.trial_seed(7, 1, 0, 0, "split") != base
        assert E.trial_seed(7, 0, 1, 0, "split") != base
        assert E.trial_seed(7, 0, 0, 1, "split") != base
        assert E.trial_seed(7, 0, 0, 0, "full_tx") != base
        assert E.trial_seed(8, 0, 0, 0, "split") != base


def small_spec(**overrides):
    defaults = dict(
        model=TINY,
        modulations=(phy.QPSK, phy.QAM16),
        snr_db=(5.0, 20.0),
        pipelines=("traditional", "full_tx", "split"),
        num_images=2,
        master_seed=4242,
    )
    defaults.update(overrides)
    return E.ExperimentSpec(**defaults)


class TestSweep:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers see the recording build only when forked")
    def test_pool_builds_one_context_per_trial_at_most_with_one_thread_each(self, tmp_path, monkeypatch):
        # each pool worker builds the weights and every reference, so a pool
        # wider than the trial count only builds contexts no trial uses
        log = tmp_path / "builds.txt"
        build = E._build_context

        def recording(spec):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {tensor_ops.threads}\n")
            return build(spec)

        monkeypatch.setattr(E, "_build_context", recording)
        monkeypatch.setattr(tensor_ops, "threads", 4)
        spec = small_spec(modulations=(phy.QPSK,), snr_db=(20.0,), pipelines=("split",))
        E.sweep(spec, workers=6)
        builds = [line.split() for line in log.read_text().splitlines()]
        assert len(builds) == len({pid for pid, _ in builds}) == spec.num_images == 2
        assert os.getpid() not in {int(pid) for pid, _ in builds}
        assert {threads for _, threads in builds} == {"1"}
        assert tensor_ops.threads == 4  # the caller's count is its own

    def test_row_and_result_counts(self):
        spec = small_spec(snr_db=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                          pipelines=("split",), num_images=1)
        results = E.sweep(spec)
        assert len(results) == 2
        for r in results:
            assert len(r.snr_db) == 6
            assert len(r.miou_median["split"]) == 6
            assert len(r.ber) == 6

    def test_deterministic_and_worker_independent(self, tmp_path):
        spec = small_spec()
        r1 = E.sweep(spec, workers=1)
        r2 = E.sweep(spec, workers=1)
        r4 = E.sweep(spec, workers=4)
        paths = []
        for tag, results in [("a", r1), ("b", r2), ("c", r4)]:
            for r in results:
                p = tmp_path / f"{tag}_{r.modulation}.csv"
                E.write_csv(r, p)
                paths.append(p)
        assert (tmp_path / "a_qpsk.csv").read_bytes() == (tmp_path / "b_qpsk.csv").read_bytes()
        assert (tmp_path / "a_qpsk.csv").read_bytes() == (tmp_path / "c_qpsk.csv").read_bytes()
        assert (tmp_path / "a_16qam.csv").read_bytes() == (tmp_path / "c_16qam.csv").read_bytes()

    def test_bits_match_formulas(self):
        spec = small_spec(num_images=1, snr_db=(10.0,), modulations=(phy.QPSK,))
        (result,) = E.sweep(spec)
        for p in spec.pipelines:
            assert result.bits_per_image[p] == metrics.bits_per_image(p, TINY, spec.quant_bits)

    def test_bit_accounting_mismatch_is_an_error(self, monkeypatch):
        # a trial that sends other than the formula's bits stops the sweep,
        # naming the pipeline
        formula = metrics.bits_per_image
        monkeypatch.setattr(metrics, "bits_per_image",
                            lambda p, *args: formula(p, *args) + (p == "split"))
        spec = small_spec(num_images=1, snr_db=(10.0,), modulations=(phy.QPSK,))
        with pytest.raises(RuntimeError, match=r"bit accounting mismatch for split: trial sent \d+, formula"):
            E.sweep(spec)

    def test_ground_truth_reference_mode(self):
        spec = small_spec(reference_mode="ground_truth", num_images=1,
                          snr_db=(30.0,), modulations=(phy.QPSK,), pipelines=("split",))
        (result,) = E.sweep(spec)
        assert 0.0 <= result.miou_median["split"][0] <= 1.0

    def test_directory_dataset(self, tmp_path):
        pairs = dataio.generate_synthetic(2, TINY.num_classes, 128, 128, seed=77)
        dataio.write_dataset(tmp_path / "data", pairs)
        spec = small_spec(dataset=str(tmp_path / "data"), num_images=2,
                          snr_db=(20.0,), modulations=(phy.QPSK,), pipelines=("split",))
        (result,) = E.sweep(spec)
        assert len(result.miou_median["split"]) == 1

    def test_directory_dataset_mismatch_aborts(self, tmp_path):
        pairs = dataio.generate_synthetic(2, TINY.num_classes, 64, 64, seed=77)
        dataio.write_dataset(tmp_path / "data", pairs)
        spec = small_spec(dataset=str(tmp_path / "data"), num_images=2)
        with pytest.raises(ValueError, match="does not match config"):
            E.sweep(spec)


def replay_trial(spec, weights, pair, key, pipeline):
    """One trial rebuilt from its seed with every receive half run:
    trial_seed -> phy.transmit -> decode -> inference. Returns the
    (mIoU, flips, channel bits, bits sent) that the sweep must report, and
    the label map its pipeline must deliver."""
    cfg, (raster, ground_truth) = spec.model, pair
    m, s, i = key
    seed = E.trial_seed(spec.master_seed, m, s, i, pipeline)
    channel = ChannelConfig(spec.modulations[m], spec.snr_db[s], seed)
    h, w, k = cfg.input_height, cfg.input_width, cfg.num_classes
    tensor = dataio.raster_to_tensor(raster)
    side_bits = 0
    if pipeline == "traditional":
        sent = codec.encode_image(raster)
        received = phy.transmit(sent, channel)
        _, seg = M.forward_full(dataio.raster_to_tensor(codec.decode_image(received, h, w)), weights)
    elif pipeline == "full_tx":
        sent = codec.encode_labelmap(M.forward_full(tensor, weights)[1], k)
        received = phy.transmit(sent, channel)
        seg = codec.decode_labelmap(received, h, w, k)
    else:
        payload = codec.quantize_features(M.forward_transmitter(tensor, weights), spec.quant_bits)
        header, sent = codec.serialize_payload(payload)
        received = phy.transmit(sent, channel)
        features = codec.dequantize_features(codec.deserialize_payload(header, received))
        _, seg = M.forward_receiver(features, weights)
        side_bits = header.n_bits
    noiseless = spec.reference_mode == "noiseless_output"
    reference = M.forward_full(tensor, weights)[1] if noiseless else ground_truth
    _, mean_iou = metrics.miou(metrics.confusion(reference, seg, k))
    return (mean_iou, unpacked_flip_count(sent, received), sent.n_bits, sent.n_bits + side_bits), seg


def recorded_sweep(spec, workers, monkeypatch):
    """Run a sweep and keep every trial's outcomes, as its loop or its pool
    hands them back: {(m, s, i): {pipeline: outcome tuple}}."""
    seen = {}
    run_trial = E._run_trial

    def recording_trial(ctx, *key):
        seen[key] = run_trial(ctx, *key)
        return seen[key]

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            for key, out in super().map(fn, *iterables, **kwargs):
                seen[key] = out
                yield key, out

    monkeypatch.setattr(E, "_run_trial", recording_trial)
    monkeypatch.setattr(E, "ProcessPoolExecutor", RecordingPool)
    E.sweep(spec, workers=workers)
    return seen


def flip_free_spec(reference_mode, quant_bits=8):
    # 30 dB QPSK delivers a 128x128 image without a flip, 5 dB never does
    return small_spec(modulations=(phy.QPSK,), snr_db=(5.0, 30.0), reference_mode=reference_mode,
                      quant_bits=quant_bits)


class TestFlipFreeReceive:
    # at 8 bits split's clean labels equal the reference on these images, at
    # 4 bits they do not, so a split shortcut that delivered the reference shows
    @pytest.mark.parametrize("quant_bits", [8, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reference_mode", E.REFERENCE_MODES)
    def test_every_trial_equals_its_replay(self, monkeypatch, tiny_weights, reference_mode, workers, quant_bits):
        # the outcome tuple alone cannot tell a wrong label map whose mIoU
        # happens to match, so each trial's map is kept too, by trial seed;
        # a pool worker's records stay in its own process
        label_maps = {}

        def recording(pipeline):
            fn = getattr(E, f"run_{pipeline}")

            def recorded(raster, weights, channel, *args):
                res = fn(raster, weights, channel, *args)
                label_maps[pipeline, channel.seed] = res.label_map
                return res
            monkeypatch.setattr(E, f"run_{pipeline}", recorded)

        spec = flip_free_spec(reference_mode, quant_bits)
        for pipeline in spec.pipelines:
            recording(pipeline)
        pairs = dataio.generate_synthetic(spec.num_images, TINY.num_classes, 128, 128,
                                          E.derive_seed(spec.master_seed, 0))
        outcomes = recorded_sweep(spec, workers, monkeypatch)
        assert sorted(outcomes) == [(0, s, i) for s in range(2) for i in range(spec.num_images)]
        if workers == 1:
            assert len(label_maps) == len(outcomes) * len(spec.pipelines)
        flip_free = set()
        for key, out in outcomes.items():
            assert list(out) == list(spec.pipelines)
            for pipeline, outcome in out.items():
                want, seg = replay_trial(spec, tiny_weights, pairs[key[2]], key, pipeline)
                assert tuple(outcome) == want, (key, pipeline)
                if workers == 1:
                    seed = E.trial_seed(spec.master_seed, *key, pipeline)
                    assert label_maps[pipeline, seed].same_as(seg), (key, pipeline)
                if want[1] == 0:
                    flip_free.add((key[1], pipeline))
        # the shortcut had trials to take, and trials to leave alone
        assert flip_free == {(1, p) for p in spec.pipelines}

    @pytest.mark.parametrize("reference_mode", E.REFERENCE_MODES)
    def test_receive_half_runs_only_on_flipped_streams(self, monkeypatch, reference_mode):
        calls = {"forward_full": 0, "decode_labelmap": 0, "forward_receiver": 0}
        per_run = {"traditional": [], "full_tx": [], "split": []}

        def counting(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        def recording(pipeline, name):
            fn = getattr(E, f"run_{pipeline}")

            def recorded(*args, **kwargs):
                before = calls[name]
                res = fn(*args, **kwargs)
                per_run[pipeline].append((res.bit_flips, calls[name] - before))
                return res
            monkeypatch.setattr(E, f"run_{pipeline}", recorded)

        counting(M, "forward_full")
        counting(codec, "decode_labelmap")
        counting(M, "forward_receiver")
        recording("traditional", "forward_full")
        recording("full_tx", "decode_labelmap")
        recording("split", "forward_receiver")
        spec = flip_free_spec(reference_mode)
        E.sweep(spec, workers=1)
        # with ground-truth references the sweep holds no clean label map,
        # so every traditional trial runs its receiver
        noiseless = reference_mode == "noiseless_output"
        assert [n for _, n in per_run["traditional"]] == [
            int(flips > 0 or not noiseless) for flips, _ in per_run["traditional"]]
        assert [n for _, n in per_run["full_tx"]] == [int(flips > 0) for flips, _ in per_run["full_tx"]]
        # split holds no result before its receiver, so every trial runs it
        assert [n for _, n in per_run["split"]] == [1] * len(per_run["split"])
        for pipeline, runs in per_run.items():
            flips = [f for f, _ in runs]
            assert len(flips) == 2 * spec.num_images and 0 in flips and max(flips) > 0, pipeline


class TestSpecConfig:
    def test_snr_must_increase(self):
        with pytest.raises(E.ConfigError, match="strictly increasing"):
            small_spec(snr_db=(10.0, 10.0))

    @pytest.mark.parametrize("modulation", ["fm", ["qpsk"], {"m": 1}])
    def test_unknown_modulation_names_the_value(self, modulation):
        # also one that cannot be a dict key: still a ConfigError, not a TypeError
        with pytest.raises(E.ConfigError, match=r"unknown modulation " + re.escape(repr(modulation))):
            small_spec(modulations=(phy.QPSK, modulation))

    def test_unknown_pipeline(self):
        with pytest.raises(E.ConfigError, match="unknown pipeline"):
            small_spec(pipelines=("split", "telepathy"))

    def test_quant_bits_checked(self):
        with pytest.raises(E.ConfigError, match="quant_bits"):
            small_spec(quant_bits=5)

    @pytest.mark.parametrize("field,value,key", [
        ("quant_bits", 8.0, "quant_bits"), ("num_images", 1.0, "num_images"),
        ("master_seed", True, "master_seed"), ("dataset", 5, "dataset"),
        ("reference_mode", None, "reference_mode"), ("frames_per_second", "2", "fps"),
        ("modulations", "qpsk", "modulations"), ("pipelines", "split", "pipelines"),
        ("snr_db", 10.0, "snr_db"), ("snr_db", (5.0, "20"), "snr_db"), ("snr_db", (True,), "snr_db"),
        ("snr_db", {5.0: "x"}, "snr_db"),
    ])
    def test_library_values_are_type_checked(self, field, value, key):
        # the same rules as the JSON config, with the JSON key in the message
        with pytest.raises(E.ConfigError, match=re.escape(repr(key))):
            small_spec(**{field: value})

    def test_numpy_values_and_iterables_stored_as_plain_python(self):
        spec = small_spec(
            modulations=np.array([phy.QPSK]), snr_db=np.array([5, 20.5], dtype=np.float32),
            pipelines=(p for p in ("split",)), num_images=np.int64(1), master_seed=np.uint64(7),
            quant_bits=np.int32(8), frames_per_second=np.float64(2.0),
        )
        assert spec.snr_db == (5.0, 20.5) and spec.pipelines == ("split",)
        for value in (*spec.snr_db, spec.frames_per_second):
            assert type(value) is float
        for value in (spec.num_images, spec.master_seed, spec.quant_bits):
            assert type(value) is int
        assert small_spec(snr_db=range(5, 30, 10)).snr_db == (5.0, 15.0, 25.0)
        # the CLI writes this as the .meta.json sidecar
        json.dumps(E.sweep(spec)[0].metadata)

    def test_json_round_trip(self):
        spec = small_spec()
        again = E.spec_from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_keys_rejected(self):
        raw = small_spec().to_dict()
        raw["fiber"] = True
        with pytest.raises(E.ConfigError, match="unknown config keys"):
            E.spec_from_dict(raw)

    def test_master_seed_defaults_to_model_seed(self):
        spec = E.spec_from_dict({"model": {"seed": 42}, "channel": {}})
        assert spec.master_seed == 42
        assert spec == E.ExperimentSpec(model=ModelConfig(seed=42), master_seed=42)

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            E.load_spec(tmp_path / "absent.json")

    def test_load_spec_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        with pytest.raises(E.ConfigError, match="not valid JSON"):
            E.load_spec(p)


class TestCsv:
    def make_result(self):
        return E.SweepResult(
            modulation="qpsk",
            snr_db=[5.0, 10.0, 15.0],
            miou_median={"split": [0.25, 0.5, 0.75], "full_tx": [0.1, 0.2, 0.3]},
            miou_mean={"split": [0.2, 0.5, 0.7], "full_tx": [0.1, 0.2, 0.3]},
            ber=[0.01, 0.001, 0.0001],
            bits_per_image={"split": 1000.0, "full_tx": 2000.0},
        )

    def test_header_and_line_count(self, tmp_path):
        path = tmp_path / "sweep.csv"
        E.write_csv(self.make_result(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "snr,miou_f,miou_n,miou_s"
        assert len(lines) == 4
        assert path.read_text().endswith("\n")
        assert (tmp_path / "sweep_ext.csv").exists()

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "sweep.csv"
        result = self.make_result()
        E.write_csv(result, path)
        back = E.read_csv(path)
        assert back.snr_db == result.snr_db
        assert back.miou_median["split"] == result.miou_median["split"]
        assert back.miou_median["full_tx"] == result.miou_median["full_tx"]
        # traditional was absent: written as nan, read back as nan
        assert all(np.isnan(v) for v in back.miou_median["traditional"])

    def test_write_read_write_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        E.write_csv(self.make_result(), p1)
        E.write_csv(E.read_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_rows_name_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("snr,miou_f,miou_n,miou_s\n5.0,0.1,0.2\n")
        with pytest.raises(ValueError, match="line 2"):
            E.read_csv(path)
        path.write_text("snr,wrong\n")
        with pytest.raises(ValueError, match="line 1"):
            E.read_csv(path)
        path.write_text("snr,miou_f,miou_n,miou_s\n5.0,a,b,c\n")
        with pytest.raises(ValueError, match="line 2: non-numeric"):
            E.read_csv(path)
        # an infinite SNR, or an mIoU outside [0, 1] that is not the nan of an absent pipeline
        for row in ("inf,0.5,0.5,0.4", "5.0,0.5,inf,0.4", "5.0,0.5,1e308,0.4"):
            path.write_text(f"snr,miou_f,miou_n,miou_s\n5.0,0.1,nan,0.3\n{row}\n")
            with pytest.raises(ValueError, match="line 3"):
                E.read_csv(path)


class TestPlot:
    def test_svg_well_formed_with_three_polylines(self, tmp_path):
        result = TestCsv().make_result()
        result.miou_median["traditional"] = [0.15, 0.25, 0.35]
        path = tmp_path / "plot.svg"
        from splitseg.plotting import render_plot

        render_plot([result], path)
        root = ET.parse(path).getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "SNR dB" in texts and "mIoU %" in texts
        assert {"miou_f", "miou_n", "miou_s"} <= set(texts)

    def test_monotone_series_monotone_pixels(self, tmp_path):
        result = E.SweepResult(
            modulation="qpsk", snr_db=[0.0, 10.0, 20.0, 30.0],
            miou_median={"split": [0.1, 0.4, 0.6, 0.9]},
        )
        path = tmp_path / "mono.svg"
        from splitseg.plotting import render_plot

        render_plot([result], path)
        root = ET.parse(path).getroot()
        poly = next(el for el in root.iter() if el.tag.endswith("polyline"))
        pts = [tuple(float(v) for v in p.split(",")) for p in poly.attrib["points"].split()]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)  # higher mIoU sits higher on screen

    def test_empty_rejected(self, tmp_path):
        from splitseg.plotting import render_plot

        with pytest.raises(ValueError, match="no results"):
            render_plot([], tmp_path / "x.svg")
