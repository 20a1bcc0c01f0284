"""Network construction, split execution, MAC accounting, and weight i/o."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from splitseg import codec, metrics
from splitseg import model as M
from splitseg import tensor_ops as T
from splitseg.model import ModelConfig


def tiny_config(**overrides):
    defaults = dict(input_height=128, input_width=128, base_channels=8,
                    feature_channels=16, num_classes=4, ppm_bins=(1, 2), seed=7)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def random_image(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((3, cfg.input_height, cfg.input_width), dtype=np.float32)


@pytest.fixture(scope="module")
def full_scale_weights():
    return M.build(ModelConfig.full_scale())


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible by 64"):
            ModelConfig(input_height=200, input_width=256)

    def test_bin_bounds_enforced(self):
        with pytest.raises(ValueError, match="ppm bin"):
            ModelConfig(input_height=128, input_width=128, ppm_bins=(1, 2, 3))

    def test_bins_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ModelConfig(ppm_bins=(1, 2, 2))

    def test_channel_minimums(self):
        with pytest.raises(ValueError, match="base_channels"):
            ModelConfig(base_channels=2)
        with pytest.raises(ValueError, match="feature_channels"):
            ModelConfig(feature_channels=3)
        with pytest.raises(ValueError, match="num_classes"):
            ModelConfig(num_classes=1)

    def test_dict_round_trip(self):
        cfg = ModelConfig.full_scale(seed=99)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field,value", [
        ("input_height", 256.0), ("input_width", "256"), ("base_channels", 16.0),
        ("feature_channels", True), ("num_classes", 8.5), ("num_classes", None),
        ("seed", True), ("seed", 1234.0), ("seed", np.float64(7.0)), ("seed", np.bool_(True)),
    ])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(M.ConfigError, match=f"'{field}' must be int"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("bins", [(1.7, 2.2), (1, 2.0), (True, 2), ("1", "2")])
    def test_ppm_bins_entries_must_be_integers(self, bins):
        with pytest.raises(M.ConfigError, match="'ppm_bins' must be int"):
            ModelConfig(ppm_bins=bins)

    @pytest.mark.parametrize("bins", ["12", 3, None, {1: "a", 2: "b"}])
    def test_ppm_bins_must_be_a_sequence(self, bins):
        with pytest.raises(M.ConfigError, match="'ppm_bins' must be a list"):
            ModelConfig(ppm_bins=bins)

    def test_numpy_integers_are_stored_as_int(self):
        cfg = ModelConfig(input_height=np.int64(128), input_width=np.uint16(128),
                          ppm_bins=[np.int32(1), np.int64(2)], seed=np.uint64(2 ** 64 - 1))
        values = [getattr(cfg, f) for f in ("input_height", "input_width", "seed")] + list(cfg.ppm_bins)
        assert all(type(v) is int for v in values)
        assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestBuild:
    def test_deterministic(self):
        cfg = tiny_config()
        assert M.build(cfg).same_as(M.build(cfg))

    def test_seed_sensitivity(self):
        a = M.build(tiny_config(seed=5))
        b = M.build(tiny_config(seed=6))
        assert any(
            not np.array_equal(a.params[k], b.params[k]) for k in a.params
        )

    def test_shapes_match_plan(self, tmp_path):
        cfg = tiny_config()
        expected = {}
        for plan in M.layer_plan(cfg):
            expected[plan.name + ".kernel"] = (plan.cout, plan.cin, plan.k, plan.k)
            expected[plan.name + ".bias"] = (plan.cout,)
            if plan.affine:
                expected[plan.name + ".scale"] = (plan.cout,)
                expected[plan.name + ".shift"] = (plan.cout,)
        assert list(M.param_shapes(cfg).items()) == list(expected.items())
        weights = M.build(cfg)
        for name, arr in weights.params.items():
            assert arr.shape == expected[name], name
            assert arr.dtype == np.float32
            assert np.isfinite(arr).all()
        # the weight file lists its entries in the same order
        M.save_weights(weights, tmp_path / "w")
        manifest = json.loads((tmp_path / "w.json").read_text())
        assert [(e["name"], tuple(e["shape"])) for e in manifest["params"]] == list(expected.items())
        # packed back to back: each offset is the running sum of 4 bytes per value
        ends = np.cumsum([4 * math.prod(shape) for shape in expected.values()]).tolist()
        assert [e["offset"] for e in manifest["params"]] == [0] + ends[:-1]
        assert manifest["total_bytes"] == ends[-1]

    def test_params_are_read_only_and_an_in_place_edit_reaches_the_next_pass(self):
        # the executor's unit table holds the params' arrays: no entry can be
        # swapped under it, and an edit made after a pass built it is seen
        cfg = tiny_config()
        weights = M.build(cfg)
        with pytest.raises(TypeError):
            weights.params["s6.head2.bias"] = np.ones(cfg.num_classes, dtype=np.float32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            weights.params = {}
        feats = np.random.default_rng(12).normal(size=(cfg.feature_channels, 2, 2)).astype(np.float32)
        before, _ = M.forward_receiver(feats, weights)
        weights.params["s6.ppm.fuse.kernel"][:] *= np.float32(0.5)
        weights.params["s6.head2.bias"][:] += np.float32(1.0)
        after, _ = M.forward_receiver(feats, weights)
        fresh = M.WeightSet(cfg, {name: a.copy() for name, a in weights.params.items()})
        assert not np.array_equal(after, before)
        assert np.array_equal(after, M.forward_receiver(feats, fresh)[0])

    def test_kernel_init_range(self):
        cfg = tiny_config()
        weights = M.build(cfg)
        for plan in M.layer_plan(cfg):
            a = np.sqrt(6.0 / ((plan.cin + plan.cout) * plan.k * plan.k))
            kern = weights.params[plan.name + ".kernel"]
            assert np.abs(kern).max() <= a


class TestDescribe:
    def test_full_scale_resolution_column(self):
        cfg = ModelConfig.full_scale()
        res = [s.out_h for s in M.describe(cfg)]
        assert res == [256, 256, 128, 64, 32, 16, 128]

    def test_desk_resolution_column(self):
        res = [s.out_h for s in M.describe(ModelConfig())]
        assert res == [64, 64, 32, 16, 8, 4, 32]

    def test_stage6_matches_stage2_resolution(self):
        for cfg in (tiny_config(), ModelConfig(), ModelConfig.full_scale()):
            stages = M.describe(cfg)
            assert (stages[6].out_h, stages[6].out_w) == (stages[2].out_h, stages[2].out_w)

    def test_channel_column(self):
        cfg = ModelConfig.full_scale()
        chans = [s.cout for s in M.describe(cfg)]
        c0 = cfg.base_channels
        assert chans == [c0, c0, 2 * c0, 4 * c0, 8 * c0, cfg.feature_channels, cfg.num_classes]


class TestForward:
    def test_transmitter_output_shape(self):
        cfg = tiny_config()
        weights = M.build(cfg)
        out = M.forward_transmitter(random_image(cfg), weights)
        assert out.shape == (cfg.feature_channels, 2, 2)
        assert np.isfinite(out).all()

    def test_transmitter_shape_of_desk_config(self):
        cfg = ModelConfig()
        out = M.forward_transmitter(random_image(cfg), M.build(cfg))
        assert out.shape == (cfg.feature_channels, 4, 4)

    def test_transmitter_1024_input_gives_16x16(self):
        # full-scale resolution schedule with skinny channels to stay fast
        cfg = ModelConfig(input_height=1024, input_width=1024, base_channels=4,
                          feature_channels=8, num_classes=2, ppm_bins=(1, 2, 3, 6), seed=1)
        out = M.forward_transmitter(random_image(cfg), M.build(cfg))
        assert out.shape == (8, 16, 16)

    def test_transmitter_rejects_wrong_shape(self):
        cfg = tiny_config()
        weights = M.build(cfg)
        with pytest.raises(ValueError, match="image shape"):
            M.forward_transmitter(np.zeros((3, 64, 128), np.float32), weights)

    def test_transmitter_pure(self):
        cfg = tiny_config()
        weights = M.build(cfg)
        img = random_image(cfg, 3)
        assert np.array_equal(
            M.forward_transmitter(img, weights), M.forward_transmitter(img, weights)
        )

    def test_receiver_rejects_wrong_shape(self):
        cfg = tiny_config()
        weights = M.build(cfg)
        with pytest.raises(ValueError, match="feature shape"):
            M.forward_receiver(np.zeros((cfg.feature_channels, 3, 2), np.float32), weights)

    def test_receiver_labels_below_k(self):
        cfg = tiny_config()
        weights = M.build(cfg)
        rng = np.random.default_rng(5)
        for _ in range(3):
            feats = rng.normal(size=(cfg.feature_channels, 2, 2)).astype(np.float32)
            _, seg = M.forward_receiver(feats, weights)
            assert seg.labels.min() >= 0 and seg.labels.max() < cfg.num_classes
            assert (seg.height, seg.width) == (cfg.input_height, cfg.input_width)

    def test_equal_logits_tie_break_to_zero(self):
        cfg = tiny_config()
        weights = M.build(cfg)
        # zero the head kernel and bias: every class logit becomes identical
        weights.params["s6.head2.kernel"][:] = 0.0
        weights.params["s6.head2.bias"][:] = 0.0
        feats = np.random.default_rng(9).normal(size=(cfg.feature_channels, 2, 2)).astype(np.float32)
        logits, seg = M.forward_receiver(feats, weights)
        assert np.ptp(logits) == 0.0
        assert np.all(seg.labels == 0)

    def test_receiver_labels_are_numpy_argmax_of_logits(self):
        # the labels are numpy's argmax of the 1/8-scale head logits resized
        # to the input size
        cfg = ModelConfig()
        weights = M.build(cfg)
        rng = np.random.default_rng(10)
        for _ in range(3):
            feats = rng.normal(size=(cfg.feature_channels, 4, 4)).astype(np.float32)
            head, seg = M.forward_receiver(feats, weights)
            assert head.shape == (cfg.num_classes, cfg.input_height // 8, cfg.input_width // 8)
            assert seg.labels.dtype == np.int32
            logits = T.bilinear_resize(head, cfg.input_height, cfg.input_width)
            assert np.array_equal(seg.labels, np.argmax(logits, axis=0).astype(np.int32))

    @pytest.mark.parametrize("n", [1, 2])
    def test_full_scale_transmitter_peak_memory(self, monkeypatch, full_scale_weights, n, traced_peak):
        # s0.conv2 sets it, at 29.1 MiB, while a chunk's taps run: its 8 MiB
        # output, one 7 MiB phase slab, one product buffer and one accumulator
        # (1.7 MiB each), and what its row source holds, about 11 MiB: the
        # rows of s0.conv1 from the next chunk's first input row on, made in
        # s0.conv1's own row chunks, with that conv's slab and product buffer;
        # the epilogues run in place
        monkeypatch.setattr(T, "threads", n)
        cfg = full_scale_weights.config
        image = random_image(cfg, 12)
        peak = traced_peak(lambda: M.forward_transmitter(image, full_scale_weights))
        assert peak <= 30 << 20

    @pytest.mark.parametrize("n", [1, 2])
    def test_full_scale_receiver_peak_memory(self, monkeypatch, full_scale_weights, n, traced_peak):
        # s6.head1 sets it, at 26.0 MiB, while a chunk's taps run: its 8 MiB
        # output, one 7.4 MiB phase slab, its 2.25 MiB reordered kernels, one
        # product buffer and one accumulator (1.65 MiB each), and the 4 MiB
        # row lerp of the 16x16 map that its row source holds; the two
        # 512 KiB step buffers of a read are freed before the accumulator is
        # allocated; the final resize is reduced to labels step by step, so
        # no full-resolution logits exist
        monkeypatch.setattr(T, "threads", n)
        cfg = full_scale_weights.config
        feats = np.random.default_rng(11).normal(size=(cfg.feature_channels, 16, 16)).astype(np.float32)
        peak = traced_peak(lambda: M.forward_receiver(feats, full_scale_weights))
        assert peak <= 30 << 20

    def test_full_equals_composition(self):
        cfg = tiny_config()
        weights = M.build(cfg)
        for seed in range(20):
            img = random_image(cfg, seed)
            logits_a, seg_a = M.forward_full(img, weights)
            logits_b, seg_b = M.forward_receiver(M.forward_transmitter(img, weights), weights)
            assert np.array_equal(logits_a, logits_b)
            assert seg_a.same_as(seg_b)

    def test_full_output_dims_match_input(self):
        cfg = tiny_config()
        head, seg = M.forward_full(random_image(cfg), M.build(cfg))
        assert head.shape == (cfg.num_classes, cfg.input_height // 8, cfg.input_width // 8)
        assert (seg.height, seg.width) == (cfg.input_height, cfg.input_width)

    def test_intermediate_resolutions_match_describe(self):
        # stage outputs tracked via the plan's out dims at two input sizes
        for cfg in (ModelConfig(), tiny_config(input_height=192, input_width=192, ppm_bins=(1, 3))):
            plans = {p.name: p for p in M.layer_plan(cfg)}
            stages = M.describe(cfg)
            assert (plans["s0.conv2"].out_h, plans["s0.conv2"].out_w) == (stages[0].out_h, stages[0].out_w)
            assert (plans["s1.rb.conv2"].out_h) == stages[1].out_h
            assert (plans["s2.rb.conv2"].out_h) == stages[2].out_h
            assert (plans["s3.i.conv2"].out_h) == stages[3].out_h
            assert (plans["s4.i.conv2"].out_h) == stages[4].out_h
            assert (plans["s5.fuse"].out_h) == stages[5].out_h
            assert (plans["s6.head2"].out_h) == stages[6].out_h


RB = ("conv1", "conv2")
RBB = ("reduce", "conv", "expand")


def oracle_unit(weights, name, x, relu=True):
    """One conv unit written out: conv2d with the plan's stride and k // 2
    padding, the affine map where the unit has a scale, then ReLU if `relu`."""
    plan = {q.name: q for q in M.layer_plan(weights.config)}[name]
    p = weights.params
    y = T.conv2d(x, p[name + ".kernel"], p[name + ".bias"], stride=plan.stride, padding=plan.k // 2)
    if name + ".scale" in p:
        y = T.affine_norm(y, p[name + ".scale"], p[name + ".shift"])
    return T.relu(y) if relu else y


def oracle_block(weights, prefix, x, units):
    """A residual block written out: `units` in sequence, ReLU after all but
    the last, plus the input (through `prefix.proj`, without ReLU, where the
    block has one), then ReLU."""
    y = x
    for name in units:
        y = oracle_unit(weights, f"{prefix}.{name}", y, relu=name != units[-1])
    skip = x
    if prefix + ".proj.kernel" in weights.params:
        skip = oracle_unit(weights, prefix + ".proj", x, relu=False)
    return T.relu(T.add(y, skip))


def oracle_stage_outputs(image, weights):
    """Every stage's output, from the network written out layer by layer
    (stages 3-4 give the (p, i, d) branch triple, stage 6 the 1/8-scale head
    logits); the stage table must reproduce these bitwise."""
    cfg = weights.config
    x = oracle_unit(weights, "s0.conv1", image)
    outs = [oracle_unit(weights, "s0.conv2", x)]
    outs.append(oracle_block(weights, "s1.rb", outs[-1], RB))
    outs.append(oracle_block(weights, "s2.rb", outs[-1], RB))
    p = i = d = outs[-1]
    for s in (3, 4):
        p = oracle_block(weights, f"s{s}.p", p, RB)
        i = oracle_block(weights, f"s{s}.i", i, RB)
        d = oracle_block(weights, f"s{s}.d", d, RB)
        comp = oracle_unit(weights, f"s{s}.comp", i, relu=False)
        p = T.add(p, T.bilinear_resize(comp, p.shape[1], p.shape[2]))
        outs.append((p, i, d))
    p = oracle_block(weights, "s5.p", p, RBB)
    i = oracle_block(weights, "s5.i", i, RBB)
    d = oracle_block(weights, "s5.d", d, RBB)
    h64, w64 = cfg.input_height // 64, cfg.input_width // 64
    pooled = [T.avg_pool_to(p, h64, w64), T.avg_pool_to(d, h64, w64), i]
    fused = oracle_unit(weights, "s5.fuse", T.concat_channels(pooled), relu=False)
    outs.append(fused)
    branches = [fused]
    for b in cfg.ppm_bins:
        ppm = oracle_unit(weights, f"s6.ppm.bin{b}", T.avg_pool_to(fused, b, b))
        branches.append(T.bilinear_resize(ppm, h64, w64))
    y = oracle_unit(weights, "s6.ppm.fuse", T.concat_channels(branches))
    y = oracle_unit(weights, "s6.head1", T.bilinear_resize(y, cfg.input_height // 8, cfg.input_width // 8))
    outs.append(oracle_unit(weights, "s6.head2", y, relu=False))
    return outs


def same_tensors(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)
                and all(np.array_equal(u, v) for u, v in zip(a, b)))
    return np.array_equal(a, b)


class TestStageTable:
    def test_every_stage_matches_the_layer_by_layer_oracle(self):
        for cfg in (tiny_config(), tiny_config(input_height=192, input_width=128, ppm_bins=(1, 2))):
            weights = M.build(cfg)
            img = random_image(cfg, 2)
            expected = oracle_stage_outputs(img, weights)
            stages = M.describe(cfg)
            assert len(expected) == len(stages) == M.TOTAL_STAGES
            for k, want in enumerate(expected):
                got = M._forward(img, weights, 0, k + 1)
                assert same_tensors(got, want), f"stage {k}"
                # describe names the i branch of a triple
                tensor = got[1] if isinstance(got, tuple) else got
                assert tensor.shape == (stages[k].cout, stages[k].out_h, stages[k].out_w)

    @pytest.mark.parametrize("n", [1, 2])
    def test_full_scale_stages_match_the_layer_by_layer_oracle(self, monkeypatch, full_scale_weights, n):
        # here s0.conv2 and s6.head1 read their inputs as rows made on
        # demand; the oracle builds s0.conv1's output and the head's resize whole
        monkeypatch.setattr(T, "threads", n)
        assert M._streams(full_scale_weights, "s0.conv2") and M._streams(full_scale_weights, "s6.head1")
        img = random_image(full_scale_weights.config, 13)
        expected = oracle_stage_outputs(img, full_scale_weights)
        x = img
        for k, want in enumerate(expected):
            assert same_tensors(M._forward(x, full_scale_weights, k, k + 1), want), f"stage {k}"
            x = want

    def test_each_stage_runs_the_units_its_macs_count(self, monkeypatch):
        # mac_count, and through it pipeline_macs and compute_report, split the
        # plan by ConvPlan.stage: stage k must run each unit of stage k once,
        # and no other unit
        cfg = tiny_config()
        weights = M.build(cfg)
        plans = M.layer_plan(cfg)
        assert not any(M._streams(weights, p.name) for p in plans)  # every unit calls conv2d
        by_kernel = {id(weights.params[p.name + ".kernel"]): p for p in plans}
        ran = []
        conv = T.conv2d

        def recording(x, kernels, *args, **kwargs):
            ran.append(by_kernel[id(kernels)])
            return conv(x, kernels, *args, **kwargs)

        monkeypatch.setattr(T, "conv2d", recording)
        x = random_image(cfg, 5)
        for k in range(M.TOTAL_STAGES):
            first = len(ran)
            x = M._forward(x, weights, k, k + 1)
            assert [p.name for p in ran[first:] if p.stage != k] == [], f"stage {k}"
        assert sorted(p.name for p in ran) == sorted(p.name for p in plans)

    @pytest.mark.parametrize("k", range(M.TOTAL_STAGES + 1))
    def test_any_cut_composes_bitwise(self, k):
        cfg = tiny_config()
        weights = M.build(cfg)
        img = random_image(cfg, 3)
        whole = M._forward(img, weights, 0, M.TOTAL_STAGES)
        halves = M._forward(M._forward(img, weights, 0, k), weights, k, M.TOTAL_STAGES)
        assert np.array_equal(halves, whole)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 6])
    def test_halves_follow_split_boundary(self, monkeypatch, k):
        # every single-tensor boundary: the halves, the receiver's input check
        # and the payload size all move with the one constant
        cfg = tiny_config()
        weights = M.build(cfg)
        img = random_image(cfg, 4)
        logits, seg = M.forward_full(img, weights)
        monkeypatch.setattr(M, "SPLIT_BOUNDARY", k)
        cut = M.describe(cfg)[k]
        features = M.forward_transmitter(img, weights)
        assert features.shape == (cut.cout, cut.out_h, cut.out_w)
        logits_k, seg_k = M.forward_receiver(features, weights)
        assert np.array_equal(logits_k, logits) and seg_k.same_as(seg)
        assert np.array_equal(M.forward_full(img, weights)[0], logits)
        c, h, w = features.shape
        for q in (4, 8):
            assert metrics.bits_per_image("split", cfg, q) == c * h * w * q + codec.payload_header_bits(c)
        assert metrics.pipeline_macs("split", cfg) == M.mac_count(cfg, k)

    @pytest.mark.parametrize("k", [3, 4])
    def test_triple_tensor_boundary_is_rejected(self, monkeypatch, k):
        # stages 3-4 output the (p, i, d) branches: no one tensor to send
        cfg = tiny_config()
        weights = M.build(cfg)
        features = M._forward(random_image(cfg, 4), weights, 0, M.SPLIT_BOUNDARY + 1)
        monkeypatch.setattr(M, "SPLIT_BOUNDARY", k)
        match = f"SPLIT_BOUNDARY {k} .* 0, 1, 2, 5, 6"
        with pytest.raises(ValueError, match=match):
            M.forward_transmitter(random_image(cfg, 4), weights)
        with pytest.raises(ValueError, match=match):
            M.forward_receiver(features, weights)
        with pytest.raises(ValueError, match=match):
            metrics.bits_per_image("split", cfg)


class TestMacCount:
    def test_single_conv_formula(self):
        plan = M.ConvPlan("x", stage=0, k=1, cin=2, cout=3, stride=1, out_h=4, out_w=4)
        assert plan.macs == 96
        assert M.ConvPlan("y", 0, 3, 2, 3, 2, 5, 4).macs == 9 * 2 * 3 * 5 * 4

    def test_boundary_additivity(self):
        cfg = tiny_config()
        total_tx, total_rx = M.mac_count(cfg, 6)
        assert total_rx == 0
        assert M.mac_count(cfg, -1) == (0, total_tx)
        for boundary in range(-1, 7):
            tx, rx = M.mac_count(cfg, boundary)
            assert tx + rx == total_tx

    def test_stage6_difference(self):
        cfg = ModelConfig()
        tx5, rx5 = M.mac_count(cfg, 5)
        tx6, rx6 = M.mac_count(cfg, 6)
        stage6 = sum(p.macs for p in M.layer_plan(cfg) if p.stage == 6)
        assert tx6 == tx5 + stage6
        assert rx5 == stage6 and rx6 == 0

    def test_moving_boundary_monotone(self):
        cfg = ModelConfig()
        tx5, rx5 = M.mac_count(cfg, 5)
        tx6, rx6 = M.mac_count(cfg, 6)
        assert tx5 < tx6
        assert rx5 > rx6

    def test_boundary_validated(self):
        for boundary in (-2, 7):
            with pytest.raises(ValueError, match="boundary"):
                M.mac_count(ModelConfig(), boundary)


class TestWeightIO:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_config()
        weights = M.build(cfg)
        M.save_weights(weights, tmp_path / "w")
        loaded = M.load_weights(tmp_path / "w")
        assert loaded.same_as(weights)

    def test_forward_identical_after_reload(self, tmp_path):
        cfg = tiny_config()
        weights = M.build(cfg)
        M.save_weights(weights, tmp_path / "w")
        loaded = M.load_weights(tmp_path / "w")
        img = random_image(cfg, 4)
        assert np.array_equal(
            M.forward_full(img, weights)[0], M.forward_full(img, loaded)[0]
        )

    def test_missing_entry_named(self, tmp_path):
        cfg = tiny_config()
        M.save_weights(M.build(cfg), tmp_path / "w")
        mpath = tmp_path / "w.json"
        manifest = json.loads(mpath.read_text())
        manifest["params"] = [e for e in manifest["params"] if e["name"] != "s5.fuse.kernel"]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="missing entry: s5.fuse.kernel"):
            M.load_weights(tmp_path / "w")

    def test_shape_mismatch_reported(self, tmp_path):
        cfg = tiny_config()
        M.save_weights(M.build(cfg), tmp_path / "w")
        mpath = tmp_path / "w.json"
        manifest = json.loads(mpath.read_text())
        for e in manifest["params"]:
            if e["name"] == "s0.conv1.kernel":
                e["shape"] = [1, 2, 3, 3]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="shape mismatch for s0.conv1.kernel"):
            M.load_weights(tmp_path / "w")

    def test_truncated_blob_is_corrupt(self, tmp_path):
        cfg = tiny_config()
        M.save_weights(M.build(cfg), tmp_path / "w")
        bpath = tmp_path / "w.bin"
        bpath.write_bytes(bpath.read_bytes()[:-17])
        with pytest.raises(ValueError, match="corrupt file"):
            M.load_weights(tmp_path / "w")

    def test_garbled_manifest_is_corrupt(self, tmp_path):
        cfg = tiny_config()
        M.save_weights(M.build(cfg), tmp_path / "w")
        (tmp_path / "w.json").write_text("{not json")
        with pytest.raises(ValueError, match="corrupt file"):
            M.load_weights(tmp_path / "w")

    @pytest.mark.parametrize("text", [b"[" * 100_000, b"\xff\xfe{}"], ids=["nested_too_deep", "not_utf8"])
    def test_undecodable_manifest_is_corrupt(self, tmp_path, text):
        M.save_weights(M.build(tiny_config()), tmp_path / "w")
        (tmp_path / "w.json").write_bytes(text)
        with pytest.raises(ValueError, match="corrupt file: unreadable manifest"):
            M.load_weights(tmp_path / "w")

    def test_unexpected_entry_rejected(self, tmp_path):
        cfg = tiny_config()
        M.save_weights(M.build(cfg), tmp_path / "w")
        mpath = tmp_path / "w.json"
        manifest = json.loads(mpath.read_text())
        manifest["params"].append({"name": "s9.bogus.kernel", "shape": [1], "offset": 0})
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unexpected entry"):
            M.load_weights(tmp_path / "w")

    @pytest.mark.parametrize("key,value", [
        ("input_height", 128.0), ("seed", True), ("num_classes", "4"), ("ppm_bins", [1.0, 2.0]),
    ])
    def test_non_integer_config_is_corrupt(self, tmp_path, key, value):
        M.save_weights(M.build(tiny_config()), tmp_path / "w")
        mpath = tmp_path / "w.json"
        manifest = json.loads(mpath.read_text())
        manifest["config"][key] = value
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"corrupt file: .*{key}"):
            M.load_weights(tmp_path / "w")

    @pytest.mark.parametrize("defect", [
        lambda e: e.pop("shape"),
        lambda e: e.pop("offset"),
        lambda e: e.update(shape=3),
        lambda e: e.update(offset="x"),
        lambda e: e.update(offset=e["offset"] + 0.5),  # int() would truncate it to a wrong offset
    ], ids=["no_shape", "no_offset", "scalar_shape", "text_offset", "fractional_offset"])
    def test_malformed_entry_is_corrupt(self, tmp_path, defect):
        M.save_weights(M.build(tiny_config()), tmp_path / "w")
        mpath = tmp_path / "w.json"
        manifest = json.loads(mpath.read_text())
        defect(manifest["params"][3])
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="corrupt file"):
            M.load_weights(tmp_path / "w")

    def test_duplicate_entry_is_corrupt(self, tmp_path):
        # the copy points at another parameter's bytes; it must not silently win
        M.save_weights(M.build(tiny_config()), tmp_path / "w")
        mpath = tmp_path / "w.json"
        manifest = json.loads(mpath.read_text())
        first, other = manifest["params"][0], manifest["params"][2]
        manifest["params"].append({**first, "offset": other["offset"]})
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="corrupt file: .*twice"):
            M.load_weights(tmp_path / "w")

    def test_overlapping_entry_is_corrupt(self, tmp_path):
        # s0.conv1.bias pointed at s0.conv1.scale's bytes: same shape, in range
        M.save_weights(M.build(tiny_config()), tmp_path / "w")
        mpath = tmp_path / "w.json"
        manifest = json.loads(mpath.read_text())
        entries = {e["name"]: e for e in manifest["params"]}
        bias, scale = entries["s0.conv1.bias"]["offset"], entries["s0.conv1.scale"]["offset"]
        entries["s0.conv1.bias"]["offset"] = scale
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"corrupt file: entry s0.conv1.bias at byte {scale}, expected {bias}"):
            M.load_weights(tmp_path / "w")

    def test_gapped_entry_is_corrupt(self, tmp_path):
        # 4 spare bytes before s0.conv1.bias, every later offset and the total
        # moved to match: the bytes are all there, but not packed
        M.save_weights(M.build(tiny_config()), tmp_path / "w")
        mpath, bpath = tmp_path / "w.json", tmp_path / "w.bin"
        manifest = json.loads(mpath.read_text())
        bias = next(e["offset"] for e in manifest["params"] if e["name"] == "s0.conv1.bias")
        for e in manifest["params"]:
            e["offset"] += 4 if e["offset"] >= bias else 0
        manifest["total_bytes"] += 4
        blob = bpath.read_bytes()
        bpath.write_bytes(blob[:bias] + bytes(4) + blob[bias:])
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"corrupt file: entry s0.conv1.bias at byte {bias + 4}, expected {bias}"):
            M.load_weights(tmp_path / "w")

    @pytest.mark.parametrize("defect", [
        lambda p: p.update({"s0.conv1.bias": p["s0.conv1.bias"][:-1]}),
        lambda p: p.pop("s5.fuse.kernel"),
        lambda p: p.update({"s9.bogus.kernel": p["s0.conv1.bias"]}),
    ], ids=["shape", "missing", "unexpected"])
    def test_save_rejects_parameters_off_the_plan(self, tmp_path, defect):
        # written as the plan lays them out, they would make a corrupt file
        params = dict(M.build(tiny_config()).params)
        defect(params)
        with pytest.raises(ValueError, match="do not match param_shapes"):
            M.save_weights(M.WeightSet(tiny_config(), params), tmp_path / "w")
        assert not list(tmp_path.iterdir())

    def test_missing_files_reported(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            M.load_weights(tmp_path / "nope")


def test_split_equivalence_across_configs():
    rng = np.random.default_rng(2024)
    for trial in range(3):
        cfg = ModelConfig(
            input_height=128, input_width=128,
            base_channels=int(rng.integers(4, 12)),
            feature_channels=int(rng.integers(8, 33)),
            num_classes=int(rng.integers(2, 9)),
            ppm_bins=(1, 2),
            seed=int(rng.integers(0, 1 << 32)),
        )
        weights = M.build(cfg)
        img = rng.random((3, 128, 128), dtype=np.float32)
        a_logits, a_map = M.forward_full(img, weights)
        b_logits, b_map = M.forward_receiver(M.forward_transmitter(img, weights), weights)
        assert np.array_equal(a_logits, b_logits)
        assert a_map.same_as(b_map)


# sha256 of forward_transmitter's features, and of forward_receiver's logits
# and labels, for the inputs of test_forward_tensors_match_the_pins, per
# OpenBLAS sgemm kernel and scale. The kernels round some sums differently,
# so each has its own pins; the labels happen to agree.
TENSOR_PINS = {
    "SkylakeX": {
        "desk": ("23dfcce7b51d4c096ab829bcd419c241a17429240f489b6ebae41df665e501f2",
                 "aaa4fa57458d9b2e44c191e521b2f3f373120de6f7653309fc3d0ba69c323e34",
                 "42017a60807b02d01af1a6f4b9b69814c95a32583736e5b69196bfffff5823ee"),
        "full_scale": ("678d6cadbaad7edd821a69b6474d31a9610567e6247d1f83434838df05862704",
                       "dae6fcdc74568fa8830e88d13f04c5462edc2752649ad4e7681c3592c457e9b9",
                       "7b94eea67c6ec054fab1e3d02f5af10a3ee71af5131b41c3c982a9cddee80786"),
    },
    "Haswell": {
        "desk": ("2be4646fc6412334a490b89e4d477384358b26886582ed14094d2ada5e73af92",
                 "407860875c2e0c75cc68b9d2c51dbdc09b91794038c40d4f74cd08f6c415a50f",
                 "42017a60807b02d01af1a6f4b9b69814c95a32583736e5b69196bfffff5823ee"),
        "full_scale": ("3a978743159beaf936e5f567e8558c99ab99c713bed625f628bc41d87be4b60c",
                       "956f70ee594ac92063ee6babc6a74168e97acbb1d5f8caddd498801599382bc0",
                       "7b94eea67c6ec054fab1e3d02f5af10a3ee71af5131b41c3c982a9cddee80786"),
    },
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scale", ["desk", "full_scale"])
def test_forward_tensors_match_the_pins(monkeypatch, full_scale_weights, scale, threads):
    # the exact bytes of both halves, which a CSV digest of labels and mIoU
    # may miss; the same at any thread count
    core = T.openblas_core()
    if core not in TENSOR_PINS:
        pytest.skip(f"no tensor pins for OpenBLAS kernel {core}")
    cfg = full_scale_weights.config if scale == "full_scale" else ModelConfig()
    weights = full_scale_weights if scale == "full_scale" else M.build(cfg)
    monkeypatch.setattr(T, "threads", threads)
    cut = M.describe(cfg)[M.SPLIT_BOUNDARY]
    feats = np.random.default_rng(2025).normal(size=(cut.cout, cut.out_h, cut.out_w)).astype(np.float32)
    logits, seg = M.forward_receiver(feats, weights)
    got = [hashlib.sha256(a.tobytes()).hexdigest()
           for a in (M.forward_transmitter(random_image(cfg, 2024), weights), logits, seg.labels)]
    assert got == list(TENSOR_PINS[core][scale])
