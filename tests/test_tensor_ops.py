"""Tensor primitive tests against brute-force scalar oracles."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from splitseg import model
from splitseg import tensor_ops as T

# the sgemm kernel of numpy's OpenBLAS in this process, or None
CORE = T.openblas_core()


def conv_oracle(x, kernels, bias, stride, padding):
    """Direct quadruple-loop convolution in float64."""
    c, h, w = x.shape
    oc, ic, k, _ = kernels.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, padding:padding + h, padding:padding + w] = x
    out = np.zeros((oc, oh, ow), dtype=np.float64)
    for o in range(oc):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(ic):
                    for dy in range(k):
                        for dx in range(k):
                            acc += kernels[o, ci, dy, dx] * xp[ci, i * stride + dy, j * stride + dx]
                out[o, i, j] = acc + bias[o]
    return out


def tensordot_conv2d(x, kernels, bias, stride, padding):
    """Tap-by-tap conv: pad, then per (dy, dx) one tensordot over in_ch added
    to a zero accumulator, bias last. `T.conv2d` must match it bit for bit."""
    out_ch, _, k, _ = kernels.shape
    _, h, w = x.shape
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding))) if padding else x
    acc = np.zeros((out_ch, out_h, out_w), dtype=np.float32)
    for dy in range(k):
        y_stop = dy + (out_h - 1) * stride + 1
        for dx in range(k):
            x_stop = dx + (out_w - 1) * stride + 1
            patch = xp[:, dy:y_stop:stride, dx:x_stop:stride]
            acc += np.tensordot(kernels[:, :, dy, dx], patch, axes=([1], [0]))
    acc += bias[:, None, None]
    return acc


def model_conv_shapes(cfg):
    """((in_ch, h, w), (out_ch, in_ch, k, k), stride, padding) of every conv2d in a forward pass."""
    return [((p.cin, p.out_h * p.stride, p.out_w * p.stride), (p.cout, p.cin, p.k, p.k), p.stride, p.k // 2)
            for p in model.layer_plan(cfg)]


def resize_oracle(x, out_h, out_w):
    """Scalar bilinear resampling with the same half-pixel/clamp rule."""
    c, h, w = x.shape
    out = np.zeros((c, out_h, out_w), dtype=np.float64)
    for ci in range(c):
        for i in range(out_h):
            sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            y0 = int(np.floor(sy))
            y1 = min(y0 + 1, h - 1)
            wy = sy - y0
            for j in range(out_w):
                sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
                x0 = int(np.floor(sx))
                x1 = min(x0 + 1, w - 1)
                wx = sx - x0
                top = x[ci, y0, x0] + wx * (x[ci, y0, x1] - x[ci, y0, x0])
                bot = x[ci, y1, x0] + wx * (x[ci, y1, x1] - x[ci, y1, x0])
                out[ci, i, j] = top + wy * (bot - top)
    return out


def gather4_resize(x, out_h, out_w):
    """The 2-D bilinear form: four corner gathers, then three float32 lerps.

    `T.bilinear_resize` must match it bit for bit.
    """
    c, h, w = x.shape
    ys = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)[None, :, None]
    wx = (xs - x0).astype(np.float32)[None, None, :]
    tl = x[:, y0[:, None], x0[None, :]]
    tr = x[:, y0[:, None], x1[None, :]]
    bl = x[:, y1[:, None], x0[None, :]]
    br = x[:, y1[:, None], x1[None, :]]
    top = tl + wx * (tr - tl)
    bot = bl + wx * (br - bl)
    return np.ascontiguousarray(top + wy * (bot - top), dtype=np.float32)


def model_resize_shapes(cfg):
    """((channels, h, w), (out_h, out_w)) of every bilinear resize in a forward
    pass; the last, of the head logits to the input size, is `resize_argmax`'s."""
    plans = {p.name: p for p in model.layer_plan(cfg)}
    h64, w64 = cfg.input_height // 64, cfg.input_width // 64

    def src(name):
        p = plans[name]
        return (p.cout, p.out_h, p.out_w)

    def out(name):
        return (plans[name].out_h, plans[name].out_w)

    shapes = [(src(f"s{s}.comp"), out(f"s{s}.p.conv2")) for s in (3, 4)]
    shapes += [(src(f"s6.ppm.bin{b}"), (h64, w64)) for b in cfg.ppm_bins]
    shapes.append((src("s6.ppm.fuse"), out("s6.head1")))
    shapes.append((src("s6.head2"), (cfg.input_height, cfg.input_width)))
    return shapes


def pool_oracle(x, bins):
    """Windowed-mean pooling with floor bin edges."""
    c, h, w = x.shape
    out = np.zeros((c, bins, bins), dtype=np.float64)
    for ci in range(c):
        for i in range(bins):
            for j in range(bins):
                ys, ye = (i * h) // bins, ((i + 1) * h) // bins
                xs, xe = (j * w) // bins, ((j + 1) * w) // bins
                out[ci, i, j] = x[ci, ys:ye, xs:xe].astype(np.float64).mean()
    return out


class TestConv2d:
    def test_all_ones_overlap_counts(self):
        x = np.ones((1, 3, 3), dtype=np.float32)
        k = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = T.conv2d(x, k, [0.0], stride=1, padding=1)
        assert out.shape == (1, 3, 3)
        assert out[0, 1, 1] == 9.0
        for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out[0, i, j] == 4.0

    def test_1x1_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 4)).astype(np.float32)
        k = np.zeros((2, 2, 1, 1), dtype=np.float32)
        k[0, 0], k[1, 1] = 1.0, 1.0
        out = T.conv2d(x, k, [0.0, 0.0])
        assert np.array_equal(out, x)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 4, 4)).astype(np.float32)
        k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        out = T.conv2d(x, k, b, stride=2, padding=1)
        assert out.shape == (3, 2, 2)
        expected = conv_oracle(x, k, b, stride=2, padding=1)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("k,stride,padding", [(1, 1, 0), (3, 1, 1), (3, 2, 1), (5, 2, 2), (5, 3, 0)])
    def test_shape_formula(self, k, stride, padding):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 13, 11)).astype(np.float32)
        w = rng.normal(size=(4, 2, k, k)).astype(np.float32)
        out = T.conv2d(x, w, np.zeros(4), stride=stride, padding=padding)
        oh = (13 + 2 * padding - k) // stride + 1
        ow = (11 + 2 * padding - k) // stride + 1
        assert out.shape == (4, oh, ow)
        np.testing.assert_allclose(
            out, conv_oracle(x, w, np.zeros(4), stride, padding), rtol=1e-5, atol=1e-6
        )

    def test_linearity(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 8, 8)).astype(np.float32)
        y = rng.normal(size=(3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        zero = np.zeros(2, dtype=np.float32)
        lhs = T.conv2d(2.0 * x + 3.0 * y, w, zero, padding=1)
        rhs = 2.0 * T.conv2d(x, w, zero, padding=1) + 3.0 * T.conv2d(y, w, zero, padding=1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-5)

    def test_channel_mismatch_rejected(self):
        x = np.ones((2, 4, 4), dtype=np.float32)
        k = np.ones((1, 3, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="channel mismatch"):
            T.conv2d(x, k, [0.0], padding=1)

    def test_empty_output_rejected(self):
        x = np.ones((1, 2, 2), dtype=np.float32)
        k = np.ones((1, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="empty output"):
            T.conv2d(x, k, [0.0], stride=1, padding=0)

    def test_even_kernel_rejected(self):
        x = np.ones((1, 4, 4), dtype=np.float32)
        k = np.ones((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="odd"):
            T.conv2d(x, k, [0.0])

    def test_pure(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 6, 6)).astype(np.float32)
        k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        a = T.conv2d(x, k, b, stride=2, padding=1)
        assert np.array_equal(a, T.conv2d(x, k, b, stride=2, padding=1))


def random_conv(rng, in_shape, kernel_shape):
    x = rng.standard_normal(in_shape, dtype=np.float32)
    fan = kernel_shape[1] * kernel_shape[2] * kernel_shape[3]
    kernels = (rng.standard_normal(kernel_shape, dtype=np.float32) / np.float32(np.sqrt(fan)))
    bias = rng.standard_normal(kernel_shape[0], dtype=np.float32)
    return x, kernels, bias


def is_chunked(in_shape, out_ch, k, stride, padding):
    """Whether conv2d cuts this layer into row chunks (the larger-layer regime)."""
    _, h, w = in_shape
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    product = 4 * out_ch * out_h * (out_w + (k - 1) // stride)
    return k > 1 and min(out_ch, in_shape[0]) > 1 and out_h > 1 and product > T._BLOCK_BYTES


def chunk_rows(in_shape, out_ch, k, stride, padding):
    """The output row chunks [r0, r1) of a chunked conv2d, and its row pitch."""
    _, h, w = in_shape
    out_h = (h + 2 * padding - k) // stride + 1
    pitch = (w + 2 * padding - k) // stride + 1 + (k - 1) // stride
    chunks = min(out_h, -(-4 * out_ch * out_h * pitch // T._BLOCK_BYTES))
    bounds = [out_h * i // chunks for i in range(chunks + 1)]
    return list(zip(bounds, bounds[1:])), pitch


def slab_pad_rows(in_shape, out_ch, k, stride, padding):
    """Per chunk of a chunked conv2d: whether its phase slab holds padding
    rows above the input and below it (the trailing zero row not counted)."""
    reach = (k - 1) // stride
    flags = []
    for r0, r1 in chunk_rows(in_shape, out_ch, k, stride, padding)[0]:
        padded = [i * stride + py for i in range(r0, r1 + reach) for py in range(min(k, stride))]
        flags.append((min(padded) < padding, max(padded) >= padding + in_shape[1]))
    return flags


def chunked_conv2d(x, kernels, bias, stride, padding):
    """Conv2d's chunked regime, one sgemm call at a time, from np.pad and
    strided slices. Phase image (py, px), m = min(k, stride) of each, holds
    padded pixel (i*stride + py, j*stride + px) at row i, column j, with
    pitch out_w + reach columns. Per chunk, per row part (T._row_parts) and
    per tap (dy, dx) in order, one (out_ch x in_ch) @ (in_ch x rows*pitch)
    product of a flat window of a phase image is added to a sum that starts
    at +0.0; the bias is added last, to the out_w output columns of each
    row. T.conv2d makes the same calls, so it must match this bit for bit
    in that regime on every sgemm kernel."""
    out_ch, in_ch, k, _ = kernels.shape
    _, h, w = x.shape
    chunks, pitch = chunk_rows(x.shape, out_ch, k, stride, padding)
    out_h, out_w, m = chunks[-1][1], (w + 2 * padding - k) // stride + 1, min(k, stride)
    rows = out_h + (k - 1) // stride + 1  # the last tap's window runs into one more row
    xp = np.pad(x, ((0, 0), (padding, max(0, rows * stride - h - padding)),
                    (padding, max(0, pitch * stride - w - padding))))
    phase = [[np.ascontiguousarray(xp[:, py:py + rows * stride:stride, px:px + pitch * stride:stride])
              .reshape(in_ch, rows * pitch) for px in range(m)] for py in range(m)]
    wt = np.ascontiguousarray(kernels.transpose(2, 3, 0, 1))  # (k, k, out_ch, in_ch)
    out = np.empty((out_ch, out_h, out_w), dtype=np.float32)
    for r0, r1 in chunks:
        for a, z in T._row_parts(r1 - r0, 4 * out_ch * pitch):
            n = (z - a) * pitch
            acc = np.zeros((out_ch, n), dtype=np.float32)
            for dy in range(k):
                for dx in range(k):
                    start = (r0 + a + dy // m) * pitch + dx // m
                    acc += np.matmul(wt[dy, dx], phase[dy % m][dx % m][:, start:start + n])
            out[:, r0 + a:r0 + z] = acc.reshape(out_ch, z - a, pitch)[:, :, :out_w] + bias[:, None, None]
    return out


def conv_oracles(x, kernels, bias, stride, padding):
    """What T.conv2d must equal bit for bit. In the one-call regime: the
    full-width tensordot. In the chunked regime: the per-chunk oracle, and on
    SkylakeX, the kernel whose pins the benchmark holds, the tensordot too.
    There a part's call is past the small-matrix kernel (see T._row_parts),
    so a column does not depend on the call width; Haswell rounds some
    columns by call width, so the tensordot does not hold there."""
    out_ch, _, k, _ = kernels.shape
    if not is_chunked(x.shape, out_ch, k, stride, padding):
        return [tensordot_conv2d(x, kernels, bias, stride, padding)]
    wants = [chunked_conv2d(x, kernels, bias, stride, padding)]
    if CORE == "SkylakeX":
        wants.append(tensordot_conv2d(x, kernels, bias, stride, padding))
    return wants


def assert_matches_all(out, wants):
    for want in wants:
        assert_bitwise_equal(out, want)


def assert_conv_matches_oracles(x, kernels, bias, stride, padding):
    out = T.conv2d(x, kernels, bias, stride=stride, padding=padding)
    assert_matches_all(out, conv_oracles(x, kernels, bias, stride, padding))


# in_shape, (out_ch, k), stride, padding; every entry names what it covers
CONV_EDGE_CASES = [
    ((16, 131, 130), (32, 3), 1, 1),   # chunked, 131 rows do not split evenly into 2
    ((8, 301, 263), (32, 3), 2, 1),    # chunked, stride 2, odd input
    ((8, 403, 389), (64, 5), 3, 2),    # chunked, stride 3, odd input
    ((8, 200, 211), (64, 3), 1, 0),    # chunked, padding 0
    ((8, 250, 231), (48, 3), 2, 2),    # chunked, padding above k // 2
    ((4, 170, 181), (64, 5), 1, 4),    # chunked, padding above k // 2, k = 5
    ((3, 512, 301), (48, 3), 2, 1),    # chunked, in_ch = 3 like the first layer
    ((2, 257, 255), (64, 3), 1, 1),    # chunked, in_ch = 2
    ((64, 200, 200), (1, 3), 1, 1),    # a single output channel, large
    ((1, 400, 400), (32, 3), 1, 1),    # a single input channel, large
    ((32, 260, 250), (64, 1), 2, 0),   # k = 1 with stride 2, large
    ((8, 33, 29), (16, 3), 2, 1),      # stride 2, odd input
    ((8, 35, 31), (16, 5), 3, 2),      # stride 3, odd input
    ((6, 23, 19), (8, 3), 3, 1),       # stride 3 with k = 3
    ((5, 14, 17), (7, 3), 1, 0),       # padding 0
    ((5, 11, 13), (7, 3), 2, 3),       # padding above k // 2
    ((8, 9, 7), (16, 1), 2, 0),        # k = 1 with stride 2
    ((4, 3, 3), (6, 3), 1, 0),         # 1 x 1 output
    ((4, 1, 1), (6, 3), 1, 1),         # 1 x 1 output from a padded 1 x 1 input
    ((40, 1, 1), (6, 1), 1, 0),        # 1 x 1 output, k = 1
    ((100, 12, 10), (1, 3), 3, 1),     # a single output channel
    ((1, 12, 10), (5, 3), 1, 1),       # a single input channel
    ((1, 5, 5), (1, 3), 2, 1),         # a single channel on both sides
    ((2, 1, 1), (3, 5), 2, 4),         # padding above the input size: some shifted copies hold no input pixel
    ((6, 25, 22), (8, 3), 4, 1),       # stride 4 above k = 3: some padded rows and columns are never read
]


# chunked layers with few input rows and padding above k // 2, so that one
# chunk's slab has padding rows above and below the input, one only above
# and one only below; strides 1, 2 and 3
SLAB_PAD_CASES = [
    ((2, 3, 4000), (64, 5), 1, 4),
    ((2, 3, 4000), (128, 5), 2, 6),
    ((2, 3, 6000), (128, 7), 3, 9),
]


# the 128x128 config of the benchmark's self-tests
TINY_128 = model.ModelConfig(input_height=128, input_width=128, base_channels=8,
                             feature_channels=16, num_classes=4, ppm_bins=(1, 2), seed=11)


class TestConv2dExact:
    @pytest.mark.parametrize("cfg", [model.ModelConfig(), model.ModelConfig.full_scale(), TINY_128],
                             ids=["desk", "full_scale", "128"])
    def test_matches_tensordot_on_model_shapes(self, cfg):
        # full channel counts: in_ch is the sgemm depth, which selects the BLAS kernel
        rng = np.random.default_rng(cfg.input_height + 1)
        for in_shape, kernel_shape, stride, padding in model_conv_shapes(cfg):
            x, kernels, bias = random_conv(rng, in_shape, kernel_shape)
            assert_conv_matches_oracles(x, kernels, bias, stride, padding)

    def test_full_scale_model_exercises_both_regimes(self):
        flags = {is_chunked(in_shape, ks[0], ks[2], stride, padding)
                 for in_shape, ks, stride, padding in model_conv_shapes(model.ModelConfig.full_scale())}
        assert flags == {True, False}

    @pytest.mark.parametrize("cfg", [model.ModelConfig(), TINY_128], ids=["desk", "128"])
    def test_model_shape_list_is_complete(self, monkeypatch, cfg):
        # every conv input here is an array: a row source may reach conv2d
        # only where the layer runs in row chunks, and the benchmark's
        # self-tests trace a conv2d that calls no traced function
        weights = model.build(cfg)
        seen = []
        conv = T.conv2d

        def recording(x, kernels, bias, stride=1, padding=0):
            assert isinstance(x, np.ndarray)
            seen.append((x.shape, kernels.shape, stride, padding))
            return conv(x, kernels, bias, stride=stride, padding=padding)

        monkeypatch.setattr(T, "conv2d", recording)
        image = np.random.default_rng(19).random((3, cfg.input_height, cfg.input_width), dtype=np.float32)
        model.forward_full(image, weights)
        assert sorted(seen) == sorted(model_conv_shapes(cfg))

    @pytest.mark.parametrize("in_shape,out,stride,padding", CONV_EDGE_CASES)
    def test_matches_tensordot_on_edge_shapes(self, in_shape, out, stride, padding):
        out_ch, k = out
        rng = np.random.default_rng(sum(in_shape) + out_ch * k + stride + padding)
        x, kernels, bias = random_conv(rng, in_shape, (out_ch, in_shape[0], k, k))
        assert_conv_matches_oracles(x, kernels, bias, stride, padding)

    def test_edge_cases_cover_the_chunked_regime(self):
        chunked = [is_chunked(in_shape, out_ch, k, stride, padding)
                   for in_shape, (out_ch, k), stride, padding in CONV_EDGE_CASES]
        assert chunked[:7] == [True] * 7
        shape, (out_ch, k), stride, padding = CONV_EDGE_CASES[0]
        assert ((shape[1] + 2 * padding - k) // stride + 1) % 2 == 1

    def test_edge_cases_cover_a_shifted_copy_without_input(self):
        # the one-call regime's slab: one image per row phase and column tap
        in_shape, (_, k), stride, padding = CONV_EDGE_CASES[-2]
        out_h, out_w = [(n + 2 * padding - k) // stride + 1 for n in in_shape[1:]]
        rows = out_h + (k - 1) // stride
        copies = np.zeros((min(k, stride), k, in_shape[0], rows, out_w), dtype=np.float32)
        fill = T._slab_fill(copies.shape, in_shape, stride, padding, 0, rows)
        T._fill_phase_slab(copies, T._Rows(np.ones(in_shape, dtype=np.float32)), fill)
        held = copies.reshape(min(k, stride) * k, -1).any(axis=1)
        assert held.any() and not held.all()

    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)], ids=["k1", "k3"])
    def test_matches_tensordot_on_a_non_contiguous_input_view(self, k, padding):
        # the one-call regime on every other channel and column of a larger array
        rng = np.random.default_rng(47 + k)
        whole, kernels, bias = random_conv(rng, (12, 9, 22), (16, 6, k, k))
        x = whole[::2, :, ::2]
        assert not x.flags.c_contiguous and not is_chunked(x.shape, 16, k, 1, padding)
        assert_conv_matches_oracles(x, kernels, bias, 1, padding)

    @pytest.mark.parametrize("in_shape,out,stride,padding", SLAB_PAD_CASES, ids=["s1", "s2", "s3"])
    def test_matches_tensordot_where_a_slab_is_padded_above_and_below(self, in_shape, out, stride, padding):
        out_ch, k = out
        pads = slab_pad_rows(in_shape, out_ch, k, stride, padding)
        assert is_chunked(in_shape, out_ch, k, stride, padding) and len(pads) > 1
        assert (True, True) in pads and (True, False) in pads and (False, True) in pads
        rng = np.random.default_rng(stride + 40)
        x, kernels, bias = random_conv(rng, in_shape, (out_ch, in_shape[0], k, k))
        assert_conv_matches_oracles(x, kernels, bias, stride, padding)

    @pytest.mark.parametrize("per_tap", [False, True], ids=["q=m", "q=k"])
    @pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (5, 2, 4), (7, 3, 5)])
    def test_phase_slab_does_not_depend_on_earlier_fills(self, k, stride, padding, per_tap):
        # conv2d fills one slab chunk after chunk; a fill must not keep any
        # row of an earlier one, whatever rows that earlier fill wrote. The
        # slab holds one image per stride phase, or per column tap (q = k).
        x = np.random.default_rng(k).normal(size=(3, 7, 9)).astype(np.float32)
        m, rows, cols = min(k, stride), 4, 6
        total = (7 + 2 * padding - k) // stride + 1 + (k - 1) // stride  # phase rows conv2d reads

        def filled(*row0s):
            slab = np.zeros((m, k if per_tap else m, 3, rows + 2, cols), dtype=np.float32)
            for row0 in row0s:
                fill = T._slab_fill(slab.shape, x.shape, stride, padding, row0, min(rows, total - row0))
                T._fill_phase_slab(slab, T._Rows(x), fill)
            return slab

        for row0 in range(total):
            for earlier in range(total):
                assert_bitwise_equal(filled(earlier, row0), filled(row0))

    def test_full_scale_peak_memory_is_output_one_slab_one_product_and_one_accumulator(self, traced_peak):
        # s0.conv2, the transmitter's largest conv: a whole-input set of phase
        # images would be 34 MiB; one chunk's slab is under 7 MiB, and its
        # product buffer and accumulator 1.7 MiB each
        p = {q.name: q for q in model.layer_plan(model.ModelConfig.full_scale())}["s0.conv2"]
        in_shape = (p.cin, p.out_h * p.stride, p.out_w * p.stride)
        x, kernels, bias = random_conv(np.random.default_rng(41), in_shape, (p.cout, p.cin, p.k, p.k))
        assert is_chunked(in_shape, p.cout, p.k, p.stride, p.k // 2)
        chunks, pitch = chunk_rows(in_shape, p.cout, p.k, p.stride, p.k // 2)
        most = max(r1 - r0 for r0, r1 in chunks)
        m, reach = min(p.k, p.stride), (p.k - 1) // p.stride
        out_bytes = 4 * p.cout * p.out_h * p.out_w
        slab_bytes = 4 * m * m * p.cin * (most + reach + 1) * pitch
        product_bytes = accumulator_bytes = 4 * p.cout * most * pitch
        peak = traced_peak(lambda: T.conv2d(x, kernels, bias, stride=p.stride, padding=p.k // 2))
        assert peak <= out_bytes + slab_bytes + product_bytes + accumulator_bytes + kernels.nbytes + (64 << 10)

    @pytest.mark.parametrize("name", ["s0.conv1", "s1.rb.conv1"])
    def test_desk_peak_memory_is_output_product_shifted_copies_and_weights(self, name, traced_peak):
        # the one-call regime trades k * min(k, stride) shifted copies of the
        # input for np.pad's padded input and a window per tap
        p = {q.name: q for q in model.layer_plan(model.ModelConfig())}[name]
        in_shape = (p.cin, p.out_h * p.stride, p.out_w * p.stride)
        x, kernels, bias = random_conv(np.random.default_rng(43), in_shape, (p.cout, p.cin, p.k, p.k))
        assert not is_chunked(in_shape, p.cout, p.k, p.stride, p.k // 2)
        out_bytes = product_bytes = 4 * p.cout * p.out_h * p.out_w
        copies_bytes = 4 * p.k * min(p.k, p.stride) * p.cin * (p.out_h + (p.k - 1) // p.stride) * p.out_w
        peak = traced_peak(lambda: T.conv2d(x, kernels, bias, stride=p.stride, padding=p.k // 2))
        assert peak <= out_bytes + product_bytes + copies_bytes + kernels.nbytes + (64 << 10)

    @pytest.mark.parametrize("in_shape,out,stride,padding", [
        ((16, 131, 130), (32, 3), 1, 1), ((5, 14, 17), (7, 3), 2, 1),
    ], ids=["chunked", "small"])
    def test_matches_tensordot_on_non_finite_input(self, in_shape, out, stride, padding):
        out_ch, k = out
        rng = np.random.default_rng(29)
        x, kernels, bias = random_conv(rng, in_shape, (out_ch, in_shape[0], k, k))
        x[0, 2, 3], x[1, 7, 0], x[-1, -1, -1] = np.inf, -np.inf, np.nan
        kernels[1, 0, 1, 1] = np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            x[2] *= np.float32(1e38)  # some overflow to inf, sums of the rest may too
            assert_conv_matches_oracles(x, kernels, bias, stride, padding)

    @pytest.mark.parametrize("in_shape,out,stride,padding", [
        ((16, 131, 130), (32, 3), 1, 1), ((8, 33, 29), (16, 3), 2, 1), ((8, 9, 7), (16, 1), 1, 0),
    ], ids=["chunked", "small", "k1"])
    def test_inputs_not_mutated(self, in_shape, out, stride, padding):
        out_ch, k = out
        x, kernels, bias = random_conv(np.random.default_rng(31), in_shape, (out_ch, in_shape[0], k, k))
        before = [a.copy() for a in (x, kernels, bias)]
        T.conv2d(x, kernels, bias, stride=stride, padding=padding)
        for a, b in zip((x, kernels, bias), before):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    @pytest.mark.parametrize("k", [1, 3])
    def test_sum_starts_at_positive_zero(self, k):
        # one input and output channel and one output pixel: np.dot's gemv of
        # a 1x1 by a 1x1 is a plain product, so every tap's product is
        # -1 * +0.0 = -0.0. A sum that starts at +0.0, as in a zeroed
        # accumulator, stays +0.0 through the taps and the -0.0 bias; one that
        # stored tap 0's product would end at -0.0
        x = np.zeros((1, 1, 1), dtype=np.float32)
        kernels = -np.ones((1, 1, k, k), dtype=np.float32)
        bias = np.array([-0.0], dtype=np.float32)
        out = T.conv2d(x, kernels, bias, stride=1, padding=k // 2)
        assert_bitwise_equal(out, tensordot_conv2d(x, kernels, bias, 1, k // 2))
        assert_bitwise_equal(out, np.zeros((1, 1, 1), dtype=np.float32))


def span(phase, size, first, n, stride, padding):
    """Of the n indices first..first+n-1 of a stride phase of an axis of
    `size` input pixels zero-padded by `padding` (phase index i holds padded
    pixel i*stride + phase), those [lo, hi) that hold an input pixel, counted
    from `first`, and the slice of input pixels they hold."""
    lo = max(first, -(-(padding - phase) // stride))
    hi = max(lo, min(first + n, (size - 1 + padding - phase) // stride + 1))
    at = lo * stride + phase - padding
    return lo - first, hi - first, slice(at, at + (hi - lo) * stride, stride)


def fill_phase_slab_oracle(slab, src, stride, padding, row0, rows):
    """The slab fill walked out per call: T._fill_phase_slab with
    T._slab_fill's plan must write the same slab and read the same rows."""
    _, h, w = src.shape
    cols = slab.shape[4]
    for py in range(slab.shape[0]):
        lo, hi, src_r = span(py, h, row0, rows, stride, padding)
        images = slab[py]
        images[:, :, :lo] = 0.0
        images[:, :, hi:] = 0.0
        for px in range(slab.shape[1]):
            c_lo, c_hi, src_c = span(px, w, 0, cols, stride, padding)
            if hi > lo and c_hi > c_lo:
                src.read(images[px, :, lo:hi, c_lo:c_hi], src_r, src_c)


class RecordingRows(T._Rows):
    """An array row source that records the rows and columns of every read."""

    def __init__(self, x):
        super().__init__(x)
        self.reads = []

    def read(self, dst, rows, cols):
        self.reads.append((rows, cols))
        super().read(dst, rows, cols)


class TestConvPlan:
    @pytest.mark.parametrize("in_shape,out,stride,padding", CONV_EDGE_CASES + SLAB_PAD_CASES)
    def test_one_plan_per_shape_equal_to_the_per_call_fill(self, in_shape, out, stride, padding):
        out_ch, k = out
        rng = np.random.default_rng(sum(in_shape) + out_ch * k + stride + padding)
        x, kernels, bias = random_conv(rng, in_shape, (out_ch, in_shape[0], k, k))
        plan = T._Conv(x, kernels, bias, stride, padding).plan
        assert T._Conv(x[::-1], kernels.copy(), list(bias), stride, padding).plan is plan
        assert len(plan.chunks) > 1 or not is_chunked(in_shape, out_ch, k, stride, padding)
        for r0, r1 in plan.chunks:
            got, want = np.full(plan.slab, np.nan, np.float32), np.full(plan.slab, np.nan, np.float32)
            got_src, want_src = RecordingRows(x), RecordingRows(x)
            T._fill_phase_slab(got, got_src, plan.fills[r0])
            fill_phase_slab_oracle(want, want_src, stride, padding, r0, r1 - r0 + (k - 1) // stride)
            assert_bitwise_equal(got, want)
            assert got_src.reads == want_src.reads

    def test_a_plan_is_keyed_by_the_block_size(self, monkeypatch):
        in_shape, (out_ch, k), stride, padding = CONV_EDGE_CASES[0]
        x, kernels, bias = random_conv(np.random.default_rng(3), in_shape, (out_ch, in_shape[0], k, k))
        chunks = T._Conv(x, kernels, bias, stride, padding).chunks
        monkeypatch.setattr(T, "_BLOCK_BYTES", T._BLOCK_BYTES // 4)
        assert len(T._Conv(x, kernels, bias, stride, padding).chunks) > len(chunks)

    def test_a_bad_argument_is_still_rejected_after_a_good_call(self):
        x, kernels, bias = random_conv(np.random.default_rng(4), (4, 9, 9), (6, 4, 3, 3))
        T.conv2d(x, kernels, bias, stride=1, padding=1)
        with pytest.raises(ValueError, match="bias length 5 != out_ch 6"):
            T.conv2d(x, kernels, bias[:5], stride=1, padding=1)
        with pytest.raises(ValueError, match="channel mismatch"):
            T.conv2d(x[:3], kernels, bias, stride=1, padding=1)


def conv_rows(rng, in_shape):
    """A row source of shape in_shape made by a unit like s0.conv1 (3x3,
    stride 2, affine and ReLU on a 3-channel input), and that tensor whole."""
    c, h, w = in_shape
    x, kernels, bias = random_conv(rng, (3, 2 * h, 2 * w), (c, 3, 3, 3))
    scale = rng.uniform(0.5, 1.5, c).astype(np.float32)
    shift = rng.standard_normal(c, dtype=np.float32)
    whole = T.relu(T.affine_norm(T.conv2d(x, kernels, bias, stride=2, padding=1), scale, shift))

    def epilogue(out):
        T.relu(T.affine_norm(out, scale, shift, out=out), out=out)

    return T._Conv(x, kernels, bias, 2, 1, epilogue), whole


def resize_rows(rng, in_shape):
    """A row source of shape in_shape resized from a smaller map, and that tensor whole."""
    c, h, w = in_shape
    x = rng.standard_normal((c, -(-h // 3), -(-w // 5)), dtype=np.float32)
    return T._ResizeRows(x, h, w), T.bilinear_resize(x, h, w)


ROW_SOURCES = {"conv": conv_rows, "resize": resize_rows}
STRIDED_EDGE_CASES = [case for case in CONV_EDGE_CASES if case[2] > 1]


class TestRowSources:
    """conv2d on rows made on demand equals conv2d on the whole tensor."""

    @pytest.mark.parametrize("source", ROW_SOURCES)
    @pytest.mark.parametrize("in_shape,out,stride,padding",
                             SLAB_PAD_CASES + [case for case in STRIDED_EDGE_CASES if is_chunked(
                                 case[0], case[1][0], case[1][1], case[2], case[3])])
    def test_conv_on_rows_matches_conv_on_the_tensor(self, monkeypatch, source, in_shape, out, stride, padding):
        # 64 KiB blocks cut both convs into many chunks, down to one row each,
        # and a resized read into many blocks
        out_ch, k = out
        rng = np.random.default_rng(sum(in_shape) + out_ch * k + stride + padding)
        _, kernels, bias = random_conv(rng, (1, 1, 1), (out_ch, in_shape[0], k, k))
        for block_bytes, n in ((T._BLOCK_BYTES, 1), (T._BLOCK_BYTES, 2), (1 << 16, 2)):
            monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(T, "threads", n)
            rows, whole = ROW_SOURCES[source](rng, in_shape)
            assert rows.shape == whole.shape
            want = T.conv2d(whole, kernels, bias, stride=stride, padding=padding)
            assert_bitwise_equal(T.conv2d(rows, kernels, bias, stride=stride, padding=padding), want)

    def test_row_sources_cover_a_conv_that_runs_as_one_chunk(self):
        # such a source makes every row at its first read, in the one-call
        # regime's own output array, not in a chunk accumulator; the default
        # block size leaves the conv_rows source of every SLAB_PAD_CASES
        # shape in one chunk, and test_conv_on_rows_matches_conv_on_the_tensor
        # runs those shapes at that size
        for in_shape, *_ in SLAB_PAD_CASES:
            c, h, w = in_shape
            assert T._row_chunks(3, 3, c, 2, h, w, T._BLOCK_BYTES) == 1

    def test_a_chunk_lets_go_of_the_rows_it_has_read_before_its_taps(self, monkeypatch):
        # full-scale s0.conv2 reading s0.conv1 as rows made in s0.conv1's own
        # chunks: while a chunk's taps run, the source holds no row below the
        # next chunk's first input row, so the rows it read are freed first
        plans = {q.name: q for q in model.layer_plan(model.ModelConfig.full_scale())}
        p1, p2 = plans["s0.conv1"], plans["s0.conv2"]
        rng = np.random.default_rng(1041)
        x, k1, b1 = random_conv(rng, (p1.cin, p1.out_h * p1.stride, p1.out_w * p1.stride), (p1.cout, p1.cin, 3, 3))
        _, k2, b2 = random_conv(rng, (1, 1, 1), (p2.cout, p2.cin, 3, 3))
        rows = T._Conv(x, k1, b1, p1.stride, 1, lambda out: out)
        conv = T._Conv(rows, k2, b2, p2.stride, 1)
        held, run = [], T._on_threads

        def recording(fn, n):  # the last call of a chunk runs its taps
            held.append([made[:2] for made in rows._made])
            run(fn, n)

        monkeypatch.setattr(T, "_on_threads", recording)
        out = np.empty(conv.shape, dtype=np.float32)
        assert len(conv.chunks) > 2
        for r0, r1 in conv.chunks:
            conv.add_taps(r0, r1, out[:, r0:r1])
            assert held[-1] and min(end for _, end in held[-1]) > r1 * p2.stride - 1

    @pytest.mark.parametrize("source", ROW_SOURCES)
    @pytest.mark.parametrize("in_shape,out,stride,padding",
                             [case for case in STRIDED_EDGE_CASES if not is_chunked(
                                 case[0], case[1][0], case[1][1], case[2], case[3])])
    def test_conv_refuses_rows_outside_the_chunked_regime(self, source, in_shape, out, stride, padding):
        out_ch, k = out
        rng = np.random.default_rng(7)
        _, kernels, bias = random_conv(rng, (1, 1, 1), (out_ch, in_shape[0], k, k))
        rows, _ = ROW_SOURCES[source](rng, in_shape)
        with pytest.raises(ValueError, match="chunked regime"):
            T.conv2d(rows, kernels, bias, stride=stride, padding=padding)


class TestAffineRelu:
    def test_affine_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4, 4)).astype(np.float32)
        out = T.affine_norm(x, np.ones(3), np.zeros(3))
        assert np.array_equal(out, x)

    def test_affine_scalar_case(self):
        x = np.full((1, 1, 1), 3.0, dtype=np.float32)
        assert T.affine_norm(x, [2.0], [1.0])[0, 0, 0] == 7.0

    def test_affine_matches_elementwise_loop(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 5)).astype(np.float32)
        s = rng.normal(size=4).astype(np.float32)
        t = rng.normal(size=4).astype(np.float32)
        out = T.affine_norm(x, s, t)
        for c in range(4):
            for i in range(3):
                for j in range(5):
                    assert out[c, i, j] == np.float32(s[c] * x[c, i, j] + t[c])

    def test_affine_matches_two_rounding_expression_bitwise(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -3.25, 1e38, -1e-45], dtype=np.float32)
        n = special.size
        x = np.broadcast_to(special[None, :, None], (n * n, n, n)).copy()
        s = np.repeat(special, n)  # every (scale, shift) pair across channels
        t = np.tile(special, n)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = x * s[:, None, None] + t[:, None, None]
            assert_bitwise_equal(T.affine_norm(x, s, t), expected)

    @pytest.mark.parametrize("op", ["affine_norm", "relu", "add"])
    def test_out_in_place_matches_pure(self, op):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(3, 6, 5)).astype(np.float32) * np.float32(1e3)
        x[0, 0, :3] = [np.nan, -0.0, np.inf]
        other = rng.normal(size=x.shape).astype(np.float32)
        call = {
            "affine_norm": lambda a, **kw: T.affine_norm(a, [1.5, -2.0, 0.3], [0.1, -0.0, 7.0], **kw),
            "relu": lambda a, **kw: T.relu(a, **kw),
            "add": lambda a, **kw: T.add(a, other, **kw),
        }[op]
        pure = call(x)
        y = x.copy()
        assert call(y, out=y) is y
        assert_bitwise_equal(y, pure)
        z = np.empty_like(x)
        assert call(x, out=z) is z
        assert_bitwise_equal(z, pure)

    @pytest.mark.parametrize("out", [np.zeros((3, 6, 5)), np.zeros((3, 5, 6), np.float32), [0.0]],
                             ids=["float64", "shape", "list"])
    def test_out_must_be_a_float32_array_of_the_result_shape(self, out):
        x = np.ones((3, 6, 5), np.float32)
        for call in (lambda: T.affine_norm(x, [1, 1, 1], [0, 0, 0], out=out),
                     lambda: T.relu(x, out=out), lambda: T.add(x, x, out=out)):
            with pytest.raises(ValueError, match="out must be a float32 array"):
                call()

    def test_affine_length_mismatch(self):
        x = np.ones((3, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="scale/shift"):
            T.affine_norm(x, [1.0, 1.0], [0.0, 0.0, 0.0])

    def test_relu(self):
        x = np.array([[[-3.0, 0.0, 5.0]]], dtype=np.float32)
        assert T.relu(x).tolist() == [[[0.0, 0.0, 5.0]]]
        assert T.relu(np.full((1, 1, 1), -1.0, dtype=np.float32))[0, 0, 0] == 0.0
        assert T.relu(np.full((1, 1, 1), 2.0, dtype=np.float32))[0, 0, 0] == 2.0


class TestPooling:
    def test_single_bin_is_global_mean(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 6, 6)).astype(np.float32)
        out = T.avg_pool_to(x, 1, 1)
        np.testing.assert_allclose(out[:, 0, 0], x.mean(axis=(1, 2)), rtol=1e-6)

    def test_quadrant_means(self):
        a, b, c, d = 1.0, 2.0, -3.0, 4.5
        x = np.zeros((1, 4, 4), dtype=np.float32)
        x[0, :2, :2], x[0, :2, 2:], x[0, 2:, :2], x[0, 2:, 2:] = a, b, c, d
        out = T.avg_pool_to(x, 2, 2)
        assert out[0].tolist() == [[a, b], [c, d]]

    def test_matches_windowed_mean_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 16, 16)).astype(np.float32)
        out = T.avg_pool_to(x, 3, 3)
        np.testing.assert_allclose(out, pool_oracle(x, 3), rtol=0, atol=1e-6)

    def test_identity_when_bins_equal_size(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 5, 5)).astype(np.float32)
        assert np.array_equal(T.avg_pool_to(x, 5, 5), x)

    def test_oversized_bins_rejected(self):
        x = np.ones((1, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="exceeds"):
            T.avg_pool_to(x, 5, 5)

    def test_rectangular_grid(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 8, 4)).astype(np.float32)
        out = T.avg_pool_to(x, 2, 2)
        np.testing.assert_allclose(
            out[:, 0, 0], x[:, :4, :2].mean(axis=(1, 2)), rtol=0, atol=1e-6
        )


class TestBilinearResize:
    def test_constant_stays_constant(self):
        x = np.full((2, 3, 5), 2.75, dtype=np.float32)
        for oh, ow in [(1, 1), (3, 5), (7, 2), (10, 10)]:
            out = T.bilinear_resize(x, oh, ow)
            assert out.shape == (2, oh, ow)
            assert np.all(out == np.float32(2.75))

    def test_single_pixel_replicates(self):
        x = np.full((1, 1, 1), -1.25, dtype=np.float32)
        out = T.bilinear_resize(x, 4, 4)
        assert np.all(out == np.float32(-1.25))

    def test_matches_scalar_oracle(self):
        x = np.array([[[0.0, 1.0], [0.0, 1.0]]], dtype=np.float32)
        out = T.bilinear_resize(x, 4, 4)
        np.testing.assert_allclose(out, resize_oracle(x, 4, 4), rtol=0, atol=1e-6)

    def test_matches_scalar_oracle_random(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 5, 7)).astype(np.float32)
        for oh, ow in [(3, 3), (10, 14), (5, 7), (13, 2)]:
            np.testing.assert_allclose(
                T.bilinear_resize(x, oh, ow), resize_oracle(x, oh, ow), rtol=0, atol=1e-6
            )


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float32
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestBilinearResizeExact:
    @pytest.mark.parametrize("shape,out_h,out_w", [
        ((2, 4, 4), 8, 8), ((2, 4, 4), 16, 12), ((3, 16, 16), 4, 4), ((2, 17, 13), 5, 3),
        ((1, 1, 1), 7, 5), ((3, 1, 1), 1, 1), ((2, 1, 6), 4, 9), ((2, 6, 1), 3, 2),
        ((2, 5, 7), 13, 11), ((2, 7, 5), 3, 11), ((1, 9, 9), 9, 9), ((2, 3, 8), 10, 3),
    ])
    def test_matches_gather_oracle(self, shape, out_h, out_w):
        x = np.random.default_rng(sum(shape) + out_h * out_w).normal(size=shape).astype(np.float32)
        assert_bitwise_equal(T.bilinear_resize(x, out_h, out_w), gather4_resize(x, out_h, out_w))

    def test_matches_gather_oracle_on_non_finite_input(self):
        x = np.random.default_rng(16).normal(size=(2, 6, 5)).astype(np.float32) * 1e30
        x[0, 2, 3], x[1, 0, 0], x[1, 4, 1] = np.inf, -np.inf, np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            assert_bitwise_equal(T.bilinear_resize(x, 11, 9), gather4_resize(x, 11, 9))

    def test_model_shape_list_is_complete(self, monkeypatch):
        cfg = model.ModelConfig()
        weights = model.build(cfg)
        seen = {"bilinear_resize": [], "resize_argmax": []}

        def recorder(name):
            fn = getattr(T, name)

            def recording(x, out_h, out_w):
                seen[name].append((x.shape, (out_h, out_w)))
                return fn(x, out_h, out_w)
            return recording

        for name in seen:
            monkeypatch.setattr(T, name, recorder(name))
        image = np.random.default_rng(17).random((3, cfg.input_height, cfg.input_width), dtype=np.float32)
        model.forward_full(image, weights)
        shapes = model_resize_shapes(cfg)
        assert sorted(seen["bilinear_resize"]) == sorted(shapes[:-1])
        assert seen["resize_argmax"] == shapes[-1:]

    @pytest.mark.parametrize("cfg", [model.ModelConfig(), model.ModelConfig.full_scale()],
                             ids=["desk", "full_scale"])
    def test_matches_gather_oracle_on_model_shapes(self, cfg):
        # channels are resized independently, so at most three keep the test small
        rng = np.random.default_rng(cfg.input_height)
        for (c, h, w), (out_h, out_w) in model_resize_shapes(cfg):
            x = rng.normal(size=(min(c, 3), h, w)).astype(np.float32)
            assert_bitwise_equal(T.bilinear_resize(x, out_h, out_w), gather4_resize(x, out_h, out_w))

    def test_matches_gather_oracle_at_full_scale_channel_counts(self):
        # the row step depends on the channel count, so these run at the
        # real one; the oracle runs a few channels at a time to stay small
        rng = np.random.default_rng(19)
        steps = []
        for (c, h, w), (out_h, out_w) in model_resize_shapes(model.ModelConfig.full_scale()):
            x = rng.normal(size=(c, h, w)).astype(np.float32)
            out = T.bilinear_resize(x, out_h, out_w)
            for c0 in range(0, c, 8):
                assert_bitwise_equal(out[c0:c0 + 8], gather4_resize(x[c0:c0 + 8], out_h, out_w))
            steps.append((out_h, T._block_rows(c, out_w)))
        assert any(step < out_h and out_h % step for out_h, step in steps)  # a partial last step
        assert (1024, 6) in steps  # the 19-class logits: 170 steps of 6 rows, then 4

    @pytest.mark.parametrize("shape,out_h,out_w,block_bytes", [
        ((3, 5, 7), 13, 11, 4 * 4 * 3 * 11 * 4),  # steps of 4 rows, partial last step
        ((2, 6, 5), 9, 9, 1),  # steps of one row
        ((1, 3, 4), 8, 6, 4 * 4 * 1 * 6 * 8),  # one exact step
    ])
    def test_matches_gather_oracle_for_any_block_size(self, monkeypatch, shape, out_h, out_w, block_bytes):
        x = np.random.default_rng(20).normal(size=shape).astype(np.float32)
        monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        assert_bitwise_equal(T.bilinear_resize(x, out_h, out_w), gather4_resize(x, out_h, out_w))

    def test_peak_memory_is_output_row_lerp_and_one_block(self, traced_peak):
        # plus 64 bytes per output row and column for the index and weight vectors
        c, h, w, out_h, out_w = 19, 64, 64, 512, 512
        x = np.random.default_rng(21).normal(size=(c, h, w)).astype(np.float32)
        out_bytes, row_lerp_bytes = 4 * c * out_h * out_w, 4 * c * h * out_w
        peak = traced_peak(lambda: T.bilinear_resize(x, out_h, out_w))
        assert peak <= out_bytes + row_lerp_bytes + T._BLOCK_BYTES + 64 * (out_h + out_w)

    def test_tables_are_made_once_per_shape_and_read_only(self):
        rng = np.random.default_rng(22)
        a, b = (T._ResizeRows(rng.normal(size=(c, 5, 7)).astype(np.float32), 13, 11) for c in (2, 3))
        assert T._ResizeRows(np.zeros((2, 5, 8), dtype=np.float32), 13, 11)._y0 is not a._y0
        for table in (a._y0, a._y1, a._wy):
            assert not table.flags.writeable
        assert all(u is v for u, v in zip((b._y0, b._y1, b._wy), (a._y0, a._y1, a._wy)))

    def test_input_not_mutated(self):
        x = np.random.default_rng(18).normal(size=(2, 4, 6)).astype(np.float32)
        before = x.copy()
        T.bilinear_resize(x, 9, 3)
        assert np.array_equal(x, before)


def argmax_oracle(x):
    return np.argmax(x, axis=0).astype(np.int32)


def argmax_into(x):
    """T._argmax_into over every pixel of (c, h, w) `x` in one block."""
    c = x.shape[0]
    labels = np.zeros(x.shape[1:], dtype=np.int32)
    T._argmax_into(x.reshape(c, -1), labels.reshape(-1), np.empty(labels.size, dtype=np.float32))
    return labels


def assert_argmax_matches(x):
    got = argmax_into(x)
    assert got.dtype == np.int32 and got.shape == x.shape[1:]
    assert np.array_equal(got, argmax_oracle(x))


class TestArgmaxChannels:
    @pytest.mark.parametrize("shape", [(1, 4, 5), (2, 3, 3), (5, 7, 9), (19, 33, 47), (4, 1, 1)])
    def test_matches_numpy_on_random_input(self, shape):
        assert_argmax_matches(np.random.default_rng(sum(shape)).normal(size=shape).astype(np.float32))

    def test_ties_keep_the_first_maximum(self):
        x = np.zeros((4, 2, 3), dtype=np.float32)
        x[:, 0, 0] = [1, 3, 3, 2]
        x[:, 0, 1] = [2, 2, 2, 2]
        x[:, 0, 2] = [0, 0, 5, 5]
        x[:, 1, 0] = [-0.0, 0.0, -0.0, 0.0]
        x[:, 1, 1] = [0.0, -0.0, 0.0, -0.0]
        x[:, 1, 2] = [-1.0, -0.0, 0.0, -0.0]
        assert_argmax_matches(x)
        assert argmax_into(x).tolist() == [[1, 0, 2], [0, 0, 1]]

    def test_infinities(self):
        inf = np.float32(np.inf)
        x = np.array([[-inf, 1.0, inf, -inf, inf, 3e38],
                      [-inf, inf, inf, -inf, 2.0, inf],
                      [-inf, 2.0, -inf, 0.0, inf, -inf]], dtype=np.float32).reshape(3, 2, 3)
        assert_argmax_matches(x)

    @pytest.mark.parametrize("nan_channels", [
        (0,), (3,), (6,), (2, 5), (0, 6), (1, 2, 3, 4, 5, 6), tuple(range(7)),
    ])
    def test_nan_counts_as_the_maximum(self, nan_channels):
        x = np.random.default_rng(22).normal(size=(7, 6, 5)).astype(np.float32)
        x[0, 0, 0] = np.inf
        x[:, 1::2, 1:] = np.float32(np.inf)  # NaN must beat inf too
        for ch in nan_channels:
            x[ch, ::2, ::2] = np.nan
            x[ch, 1, :] = np.nan
        assert_argmax_matches(x)

    def test_one_channel(self):
        x = np.array([[[np.nan, -np.inf, 1.0], [0.0, -0.0, np.inf]]], dtype=np.float32)
        assert argmax_into(x).tolist() == [[0, 0, 0], [0, 0, 0]]
        assert_argmax_matches(x)

    def test_input_not_mutated(self):
        x = np.random.default_rng(26).normal(size=(3, 4, 6)).astype(np.float32)
        x[1, 0, 0] = np.nan
        before = x.copy()
        argmax_into(x)
        assert np.array_equal(x, before, equal_nan=True)


def assert_labels_match_resize_then_argmax(x, out_h, out_w, oracle_resize=T.bilinear_resize):
    got = T.resize_argmax(x, out_h, out_w)
    assert got.dtype == np.int32 and got.shape == (out_h, out_w)
    assert np.array_equal(got, argmax_oracle(oracle_resize(x, out_h, out_w)))


class TestResizeArgmax:
    @pytest.mark.parametrize("cfg", [model.ModelConfig(), model.ModelConfig.full_scale()],
                             ids=["desk", "full_scale"])
    def test_matches_oracle_on_model_shapes(self, cfg):
        # at the real channel counts, which set the step
        rng = np.random.default_rng(cfg.input_height + 2)
        for (c, h, w), (out_h, out_w) in model_resize_shapes(cfg):
            x = rng.normal(size=(c, h, w)).astype(np.float32)
            assert_labels_match_resize_then_argmax(x, out_h, out_w)

    @pytest.mark.parametrize("shape,out_h,out_w", [
        ((3, 4, 4), 8, 8), ((5, 17, 13), 5, 3), ((4, 1, 1), 7, 5), ((2, 6, 1), 3, 2),
        ((19, 16, 16), 128, 128), ((1, 5, 7), 13, 11),
    ])
    def test_matches_gather_and_numpy_argmax(self, shape, out_h, out_w):
        x = np.random.default_rng(sum(shape) + out_h).normal(size=shape).astype(np.float32)
        got = T.resize_argmax(x, out_h, out_w)
        assert np.array_equal(got, argmax_oracle(gather4_resize(x, out_h, out_w)))

    def test_ties(self):
        # few distinct values, so that whole regions of the resize tie
        rng = np.random.default_rng(42)
        x = rng.integers(-1, 2, size=(6, 7, 9)).astype(np.float32)
        x[2:4, 3] = np.float32(-0.0)
        x[:, 0] = 1.0
        assert_labels_match_resize_then_argmax(x, 20, 31, gather4_resize)

    @pytest.mark.parametrize("seed", range(4))
    def test_infinities_and_nan(self, seed):
        rng = np.random.default_rng(43 + seed)
        values = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan], dtype=np.float32)
        x = values[rng.integers(values.size, size=(5, 6, 7))]
        with np.errstate(invalid="ignore"):
            assert_labels_match_resize_then_argmax(x, 17, 15, gather4_resize)

    @pytest.mark.parametrize("shape,out_h,out_w,block_bytes", [
        ((3, 5, 7), 13, 11, 1),  # steps of one row
        ((4, 6, 5), 9, 10, 4 * 4 * 4 * 10 * 4),  # steps of 4 rows, partial last step
        ((2, 3, 4), 8, 6, 4 * 4 * 2 * 6 * 8),  # one exact step
    ])
    def test_any_block_size(self, monkeypatch, shape, out_h, out_w, block_bytes):
        x = np.random.default_rng(44).normal(size=shape).astype(np.float32)
        x[0, 1, 1] = np.nan
        monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        with np.errstate(invalid="ignore"):
            assert_labels_match_resize_then_argmax(x, out_h, out_w, gather4_resize)

    @pytest.mark.parametrize("shape,out_h,out_w,block_bytes", [
        ((3, 5, 7), 13, 11, 4 * 4 * 3 * 11 * 4),  # steps of 4 rows: 13 = 3 x 4 + 1
        ((19, 9, 11), 23, 17, 4 * 4 * 19 * 17 * 5),  # 23 = 4 x 5 + 3
        ((5, 3, 3), 7, 7, 1),  # steps of one row
        ((2, 4, 4), 16, 8, 4 * 4 * 2 * 8 * 16),  # one exact step
    ])
    def test_blocks_that_do_not_divide_the_rows(self, monkeypatch, shape, out_h, out_w, block_bytes):
        rng = np.random.default_rng(23)
        values = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan], dtype=np.float32)
        x = values[rng.integers(values.size, size=shape)]
        monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
        with np.errstate(invalid="ignore"):
            assert_labels_match_resize_then_argmax(x, out_h, out_w, gather4_resize)
            monkeypatch.undo()
            assert_labels_match_resize_then_argmax(x, out_h, out_w, gather4_resize)

    def test_many_steps_at_the_default_size(self):
        # 19 channels, 200 columns: steps of 34 rows; 300 = 8 x 34 + 28
        assert T._block_rows(19, 200) == 34
        x = np.random.default_rng(24).normal(size=(19, 75, 50)).astype(np.float32)
        x[:, 7, :] = 0.5  # a row of ties
        x[4, 37:39, 10] = np.nan  # reaches output rows of the fifth step
        x[18, 74, 49] = np.nan  # and of the last, partial one
        with np.errstate(invalid="ignore"):
            assert_labels_match_resize_then_argmax(x, 300, 200)

    def test_peak_memory_is_labels_row_lerp_and_blocks(self, traced_peak):
        # the row lerp and its temporary, then the labels, one step and its
        # `bot`; never an output-sized float array
        c, h, w, out_h, out_w = 19, 64, 64, 512, 512
        x = np.random.default_rng(45).normal(size=(c, h, w)).astype(np.float32)
        labels_bytes, row_lerp_bytes = 4 * out_h * out_w, 4 * c * h * out_w
        peak = traced_peak(lambda: T.resize_argmax(x, out_h, out_w))
        assert peak <= labels_bytes + 2 * row_lerp_bytes + 2 * T._BLOCK_BYTES + 64 * (out_h + out_w)
        assert peak < 4 * c * out_h * out_w

    @pytest.mark.parametrize("shape,out_h,out_w", [
        ((8, 32, 32), 256, 256),  # the desk head: 4 steps of 64 rows
        ((19, 64, 64), 512, 512),  # 39 steps of 13 rows, then 5
        ((7, 900, 11), 700, 300),  # 11 steps of 62 rows, then 18
        ((3, 5, 7), 13, 11),  # one step
    ])
    @pytest.mark.parametrize("share", [1, 8])  # 8: a row source's read of part of the rows
    def test_steps_stay_within_a_quarter_block_at_any_thread_count(self, monkeypatch, shape, out_h, out_w, share):
        rs = T._ResizeRows(np.zeros(shape, dtype=np.float32), out_h, out_w)
        n_rows, seen = -(-out_h // share), []
        for n in (1, 2, 3):
            monkeypatch.setattr(T, "threads", n)
            steps = []
            rs.steps(n_rows, 0, 1, lambda r0, r1, rows, scratch: steps.append((r0, r1, rows, scratch)))
            for r0, r1, rows, scratch in steps:
                assert 0 < 4 * shape[0] * (r1 - r0) * out_w <= T._BLOCK_BYTES // 4
                for a in (rows, scratch):
                    assert a.shape == (shape[0], r1 - r0, out_w) and a.flags.c_contiguous
            bounds = sorted((r0, r1) for r0, r1, _, _ in steps)
            assert [r0 for r0, _ in bounds] == [0] + [r1 for _, r1 in bounds[:-1]] and bounds[-1][1] == n_rows
            seen.append(bounds)
        assert seen[0] == seen[1] == seen[2]

    @pytest.mark.parametrize("n", [1, 2])
    def test_steps_of_a_strided_read_match_gather_oracle(self, monkeypatch, n):
        # steps of 62 rows: every other output row from row 3 on, as a
        # stride-2 conv's row source reads
        monkeypatch.setattr(T, "threads", n)
        x = np.random.default_rng(1038).normal(size=(7, 90, 11)).astype(np.float32)
        want = gather4_resize(x, 700, 300)[:, 3::2]
        got = np.full(want.shape, np.nan, dtype=np.float32)
        T._ResizeRows(x, 700, 300).steps(want.shape[1], 3, 2, lambda r0, r1, rows, _: np.copyto(got[:, r0:r1], rows))
        assert_bitwise_equal(got, want)

    def test_desk_head_starts_no_thread(self, monkeypatch, thread_parts, started_threads):
        (c, h, w), (out_h, out_w) = model_resize_shapes(model.ModelConfig())[-1]
        x = np.random.default_rng(1036).normal(size=(c, h, w)).astype(np.float32)
        monkeypatch.setattr(T, "threads", 4)
        assert np.array_equal(T.resize_argmax(x, out_h, out_w), argmax_oracle(gather4_resize(x, out_h, out_w)))
        assert not thread_parts and not started_threads

    def test_rejects_empty_output(self):
        with pytest.raises(ValueError, match="output size must be positive"):
            T.resize_argmax(np.ones((2, 3, 3), np.float32), 0, 4)

    def test_input_not_mutated(self):
        x = np.random.default_rng(46).normal(size=(3, 4, 6)).astype(np.float32)
        before = x.copy()
        T.resize_argmax(x, 9, 5)
        assert np.array_equal(x, before)


THREAD_COUNTS = (1, 2, 3, 4)


@pytest.fixture
def thread_parts(monkeypatch):
    """The number of threads that ran the parts of every `_on_threads` call
    from here on; each call must leave no thread of its own running."""
    seen = []
    run = T._on_threads

    def recording(fn, n):
        before = threading.active_count()
        used = set()  # the Thread objects themselves: an ident may be reused

        def part(t):
            used.add(threading.current_thread())
            fn(t)

        run(part, n)
        assert threading.active_count() == before
        seen.append(len(used))

    monkeypatch.setattr(T, "_on_threads", recording)
    return seen


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started from here on; each still runs."""
    seen, start = [], threading.Thread.start

    def recording(th):
        seen.append(th)
        start(th)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return seen


def gather4_resize_by_channels(x, out_h, out_w):
    # the oracle a few channels at a time, so that its temporaries stay small
    return np.concatenate([gather4_resize(x[c0:c0 + 8], out_h, out_w) for c0 in range(0, x.shape[0], 8)])


def run_on_haswell(code: str, timeout: float) -> list[str]:
    """The words `code` prints, run in a new process on OpenBLAS's Haswell
    sgemm kernel and one BLAS thread. OpenBLAS picks its kernel when numpy
    loads, so the variable that picks it is set only in that process."""
    path = os.pathsep.join([str(Path(T.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=timeout,
                          capture_output=True, text=True).stdout.split()


class TestThreads:
    """Results do not depend on `T.threads`; chunked convs really run on
    threads, and resizes never do."""

    def test_conv2d_on_full_scale_model_shapes(self, monkeypatch, thread_parts):
        rng = np.random.default_rng(1031)
        for in_shape, kernel_shape, stride, padding in model_conv_shapes(model.ModelConfig.full_scale()):
            x, kernels, bias = random_conv(rng, in_shape, kernel_shape)
            wants = conv_oracles(x, kernels, bias, stride, padding)
            for n in THREAD_COUNTS:
                monkeypatch.setattr(T, "threads", n)
                thread_parts.clear()
                assert_matches_all(T.conv2d(x, kernels, bias, stride=stride, padding=padding), wants)
                assert max(thread_parts, default=1) <= n
                if is_chunked(in_shape, kernel_shape[0], kernel_shape[2], stride, padding) and n > 1:
                    assert max(thread_parts) > 1

    @pytest.mark.parametrize("in_shape,out,stride,padding",
                             [case for case in CONV_EDGE_CASES
                              if is_chunked(case[0], case[1][0], case[1][1], case[2], case[3])] + SLAB_PAD_CASES)
    def test_conv2d_on_chunked_edge_shapes(self, monkeypatch, thread_parts, in_shape, out, stride, padding):
        out_ch, k = out
        rng = np.random.default_rng(sum(in_shape) + out_ch * k + stride + padding)
        x, kernels, bias = random_conv(rng, in_shape, (out_ch, in_shape[0], k, k))
        wants = conv_oracles(x, kernels, bias, stride, padding)
        for n in THREAD_COUNTS:
            monkeypatch.setattr(T, "threads", n)
            assert_matches_all(T.conv2d(x, kernels, bias, stride=stride, padding=padding), wants)
        assert max(thread_parts) > 1

    def test_bilinear_resize_on_full_scale_model_shapes(self, monkeypatch, thread_parts, started_threads):
        rng = np.random.default_rng(1032)
        for (c, h, w), (out_h, out_w) in model_resize_shapes(model.ModelConfig.full_scale())[:-1]:
            x = rng.normal(size=(c, h, w)).astype(np.float32)
            want = gather4_resize_by_channels(x, out_h, out_w)
            for n in THREAD_COUNTS:
                monkeypatch.setattr(T, "threads", n)
                assert_bitwise_equal(T.bilinear_resize(x, out_h, out_w), want)
        assert not thread_parts and not started_threads

    @pytest.mark.parametrize("shape,out_h,out_w", [
        ((19, 64, 64), 512, 512),  # 39 steps of 13 rows, then 5
        ((7, 900, 11), 700, 300),  # rows scaled down, so runs of one row; 11 steps of 62 rows, then 18
    ])
    def test_resize_on_blocked_shapes(self, monkeypatch, thread_parts, started_threads, shape, out_h, out_w):
        x = np.random.default_rng(out_h).normal(size=shape).astype(np.float32)
        x[0, 1, 2], x[3, 4, 5] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            resized = gather4_resize_by_channels(x, out_h, out_w)
        labels = argmax_oracle(resized)
        for n in THREAD_COUNTS:
            monkeypatch.setattr(T, "threads", n)
            with np.errstate(invalid="ignore"):
                assert_bitwise_equal(T.bilinear_resize(x, out_h, out_w), resized)
                assert np.array_equal(T.resize_argmax(x, out_h, out_w), labels)
        assert not thread_parts and not started_threads

    def test_resize_argmax_on_the_full_scale_head(self, monkeypatch, thread_parts, started_threads):
        (c, h, w), (out_h, out_w) = model_resize_shapes(model.ModelConfig.full_scale())[-1]
        x = np.random.default_rng(1033).normal(size=(c, h, w)).astype(np.float32)
        monkeypatch.setattr(T, "threads", 1)
        want = argmax_oracle(T.bilinear_resize(x, out_h, out_w))
        for n in THREAD_COUNTS:
            monkeypatch.setattr(T, "threads", n)
            assert np.array_equal(T.resize_argmax(x, out_h, out_w), want)
        assert not thread_parts and not started_threads

    def test_row_source_within_one_block_starts_no_thread(self, monkeypatch, thread_parts, started_threads):
        # 8 channels of 256 columns: steps of 64 rows. A 200-row read is
        # 1.6 MiB, within 2 MiB of output; a 600-row read is 4.7 MiB. Both
        # run on this thread.
        monkeypatch.setattr(T, "threads", 2)
        x = np.random.default_rng(1037).normal(size=(8, 50, 64)).astype(np.float32)
        for out_h in (200, 600):
            want = gather4_resize(x, out_h, 256)
            rows, dst = T._ResizeRows(x, out_h, 256), np.empty((8, out_h, 256), dtype=np.float32)
            rows.read(dst, slice(0, out_h, 1), slice(0, 256, 1))
            assert_bitwise_equal(dst, want)
            assert not thread_parts and not started_threads

    @pytest.mark.parametrize("cfg", [model.ModelConfig(), model.ModelConfig.full_scale()],
                             ids=["desk", "full_scale"])
    def test_every_model_resize_runs_on_the_calling_thread(self, monkeypatch, thread_parts, started_threads, cfg):
        # each resize, resize_argmax and s6.head1's read of its input rows
        # for one of its chunks, as that conv's slab fill makes it
        rng = np.random.default_rng(1040)
        p = {q.name: q for q in model.layer_plan(cfg)}["s6.head1"]
        shapes = model_resize_shapes(cfg)
        assert (p.cin, p.out_h, p.out_w) in [(c, *out) for (c, _, _), out in shapes]
        for (c, h, w), (out_h, out_w) in shapes:
            x = rng.normal(size=(c, h, w)).astype(np.float32)
            want = gather4_resize_by_channels(x, out_h, out_w)
            labels = argmax_oracle(want)
            reads = []
            if (c, out_h, out_w) == (p.cin, p.out_h, p.out_w):
                plan = T._conv_plan((c, out_h, out_w), (p.cout, c, p.k, p.k), p.cout, p.stride, p.k // 2,
                                    T._BLOCK_BYTES)
                reads = [(rows, cols) for _, rows, cols in plan.fills[plan.chunks[len(plan.chunks) // 2][0]][1]]
                assert reads
            for n in THREAD_COUNTS:
                monkeypatch.setattr(T, "threads", n)
                assert_bitwise_equal(T.bilinear_resize(x, out_h, out_w), want)
                assert np.array_equal(T.resize_argmax(x, out_h, out_w), labels)
                for rows, cols in reads:
                    dst = np.empty_like(want[:, rows, cols])
                    T._ResizeRows(x, out_h, out_w).read(dst, rows, cols)
                    assert_bitwise_equal(dst, want[:, rows, cols])
        assert not thread_parts and not started_threads

    def test_desk_scale_forward_starts_no_thread(self, monkeypatch, thread_parts):
        cfg = model.ModelConfig()
        weights = model.build(cfg)
        image = np.random.default_rng(1034).random((3, cfg.input_height, cfg.input_width), dtype=np.float32)
        monkeypatch.setattr(T, "threads", 4)
        model.forward_full(image, weights)
        assert thread_parts and set(thread_parts) == {1}

    @pytest.mark.parametrize("n,failing", [(3, 0), (3, 1), (3, 2), (1, 0)])
    def test_an_exception_on_any_thread_reaches_the_caller(self, monkeypatch, n, failing):
        for threads in (1, 2, 3):  # at 2, this thread runs parts 0 and 2
            monkeypatch.setattr(T, "threads", threads)
            before = threading.active_count()
            done, counts = [], []

            def part(t):
                counts.append(threading.active_count())
                if t == failing:
                    raise ValueError(f"part {t}")
                time.sleep(0.05)  # still running when the failing part raises
                done.append(t)

            with pytest.raises(ValueError, match=f"part {failing}"):
                T._on_threads(part, n)
            assert sorted(done) == [t for t in range(n) if t != failing]
            assert threading.active_count() == before
            assert max(counts) <= before + min(threads, n) - 1
            if n == 1:  # one part runs inline and starts no thread
                assert counts == [before]

    def test_lowest_failing_part_is_raised(self, monkeypatch):
        monkeypatch.setattr(T, "threads", 3)

        def part(t):
            time.sleep(0.05 * (3 - t))  # part 2 raises first
            if t:
                raise ValueError(f"part {t}")

        with pytest.raises(ValueError, match="part 1"):
            T._on_threads(part, 3)

    def test_conv2d_bits_do_not_depend_on_threads_on_the_haswell_kernel(self):
        # OpenBLAS's Haswell sgemm, which a CPU without AVX-512 loads, rounds
        # some columns differently when a call narrows, so there this chunked
        # full-scale layer keeps its bits only if its row parts, and so its
        # sgemm calls, do not follow the thread count; so must s0.conv2 on
        # s0.conv1's rows made on demand, which also equals s0.conv2 on the
        # whole s0.conv1 output.
        code = (
            "import hashlib, numpy as np\n"
            "from splitseg import model, tensor_ops as T\n"
            "p = {q.name: q for q in model.layer_plan(model.ModelConfig.full_scale())}['s1.rb.conv1']\n"
            "rng = np.random.default_rng(1039)\n"
            "x = rng.normal(size=(p.cin, p.out_h * p.stride, p.out_w * p.stride)).astype(np.float32)\n"
            "w = (rng.normal(size=(p.cout, p.cin, p.k, p.k)) / (3 * p.k)).astype(np.float32)\n"
            "b = rng.normal(size=p.cout).astype(np.float32)\n"
            "for T.threads in (1, 2, 3):\n"
            "    y = T.conv2d(x, w, b, stride=p.stride, padding=p.k // 2)\n"
            "    print(hashlib.sha256(y.tobytes()).hexdigest())\n"
            # streamed: s0.conv2 reading s0.conv1 as rows made in its own chunks
            "plans = {q.name: q for q in model.layer_plan(model.ModelConfig.full_scale())}\n"
            "p1, p2 = plans['s0.conv1'], plans['s0.conv2']\n"
            "x = rng.random((p1.cin, 2 * p1.out_h, 2 * p1.out_w), dtype=np.float32)\n"
            "w1, w2 = ((rng.normal(size=(p.cout, p.cin, 3, 3)) / (3 * p.cin)).astype(np.float32) for p in (p1, p2))\n"
            "b1, b2 = (rng.normal(size=p.cout).astype(np.float32) for p in (p1, p2))\n"
            "relu = lambda out: T.relu(out, out=out)\n"
            "for T.threads in (1, 2, 3):\n"
            "    y = T.conv2d(T._Conv(x, w1, b1, 2, 1, relu), w2, b2, stride=2, padding=1)\n"
            "    print(hashlib.sha256(y.tobytes()).hexdigest())\n"
            "y = T.conv2d(relu(T.conv2d(x, w1, b1, stride=2, padding=1)), w2, b2, stride=2, padding=1)\n"
            "print(hashlib.sha256(y.tobytes()).hexdigest())\n"
        )
        out = run_on_haswell(code, timeout=300)
        assert len(out) == 7 and len(set(out[:3])) == 1 and len(set(out[3:])) == 1

    def test_more_threads_than_cores_with_frequent_switches(self, monkeypatch, thread_parts):
        # the threads write disjoint rows of shared buffers: an overlap or a
        # lost write would change bits when they interleave finely
        in_shape, (out_ch, k), stride, padding = CONV_EDGE_CASES[0]
        x, kernels, bias = random_conv(np.random.default_rng(1035), in_shape, (out_ch, in_shape[0], k, k))
        y = np.random.default_rng(1036).normal(size=(19, 64, 64)).astype(np.float32)
        want = (conv_oracles(x, kernels, bias, stride, padding), argmax_oracle(gather4_resize_by_channels(y, 512, 512)))
        monkeypatch.setattr(T, "threads", 2 * (os.cpu_count() or 1) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert_matches_all(T.conv2d(x, kernels, bias, stride=stride, padding=padding), want[0])
                assert np.array_equal(T.resize_argmax(y, 512, 512), want[1])
        finally:
            sys.setswitchinterval(interval)
        assert max(thread_parts) > 1  # row parts are at most two, whatever the thread count

    def test_threads_keep_the_callers_errstate(self):
        seen = []
        with np.errstate(invalid="raise", over="ignore"):
            T._on_threads(lambda t: seen.append(np.geterr()["invalid"] + np.geterr()["over"]), 3)
        assert seen == ["raiseignore"] * 3

    @pytest.mark.parametrize("n", THREAD_COUNTS)
    def test_row_parts_are_balanced_and_never_below_the_floor(self, monkeypatch, n):
        # the parts are a function of the shape alone: the same at every thread count
        floor = T._BLOCK_BYTES // 4
        cases = [(rows, row_bytes) for rows in range(1, 70)
                 for row_bytes in (1, 4096, 19 * 1024 * 4, floor // 3, floor, 3 * floor)]
        monkeypatch.setattr(T, "threads", 1)
        want = [T._row_parts(*case) for case in cases]
        monkeypatch.setattr(T, "threads", n)
        for (rows, row_bytes), parts in zip(cases, want):
            assert T._row_parts(rows, row_bytes) == parts
            assert [a for a, _ in parts] == [0] + [z for _, z in parts[:-1]] and parts[-1][1] == rows
            sizes = [z - a for a, z in parts]
            assert len(parts) <= 2 and max(sizes) - min(sizes) <= 1
            if len(parts) > 1:
                assert min(sizes) * row_bytes >= floor
            if len(parts) < min(2, rows):  # one more part would fall below the floor
                assert rows // (len(parts) + 1) * row_bytes < floor

    @pytest.mark.parametrize("op", ["conv2d", "bilinear_resize", "resize_argmax"])
    def test_peak_memory_does_not_grow_with_threads(self, monkeypatch, op, traced_peak):
        # the threads share the caller's buffers; each may hold no more than
        # the buffers of numpy's iterator (bufsize elements for each of three
        # float32 operands) and its own bookkeeping
        if op == "conv2d":
            p = {q.name: q for q in model.layer_plan(model.ModelConfig.full_scale())}["s0.conv2"]
            x, kernels, bias = random_conv(np.random.default_rng(42), (p.cin, 2 * p.out_h, 2 * p.out_w),
                                           (p.cout, p.cin, p.k, p.k))
            args, kwargs = (x, kernels, bias), {"stride": 2, "padding": 1}
        else:
            args, kwargs = (np.random.default_rng(43).normal(size=(19, 64, 64)).astype(np.float32), 512, 512), {}
        peaks = {}
        for n in THREAD_COUNTS:
            monkeypatch.setattr(T, "threads", n)
            peaks[n] = traced_peak(lambda: getattr(T, op)(*args, **kwargs))
        for n in THREAD_COUNTS:
            assert peaks[n] <= peaks[1] + (n - 1) * (12 * np.getbufsize() + (16 << 10))


class TestOpenblasCore:
    @pytest.fixture(autouse=True)
    def bundled(self):
        if CORE is None:
            pytest.skip("this numpy bundles no scipy-openblas")

    def test_names_the_kernel(self):
        assert isinstance(CORE, str) and CORE

    def test_names_the_kernel_that_openblas_coretype_picks_in_that_process_only(self):
        before = dict(os.environ)
        assert run_on_haswell("from splitseg import tensor_ops as T; print(T.openblas_core())", timeout=60) == ["Haswell"]
        assert dict(os.environ) == before and T.openblas_core() == CORE


class TestAddConcat:
    def test_add_zeros(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 3)).astype(np.float32)
        assert np.array_equal(T.add(x, np.zeros_like(x)), x)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            T.add(np.ones((1, 2, 2), np.float32), np.ones((1, 2, 3), np.float32))

    def test_concat_channel_counts(self):
        a = np.ones((2, 3, 3), dtype=np.float32)
        b = np.ones((3, 3, 3), dtype=np.float32)
        assert T.concat_channels([a, b]).shape == (5, 3, 3)

    def test_concat_slice_inverse(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 4, 4)).astype(np.float32)
        b = rng.normal(size=(3, 4, 4)).astype(np.float32)
        cat = T.concat_channels([a, b])
        assert np.array_equal(cat[:2], a)
        assert np.array_equal(cat[2:], b)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ValueError, match="spatial mismatch"):
            T.concat_channels([np.ones((1, 2, 2), np.float32), np.ones((1, 3, 2), np.float32)])


def test_all_ops_bitwise_repeatable():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(3, 9, 7)).astype(np.float32)
    k = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=2).astype(np.float32)
    calls = [
        lambda: T.conv2d(x, k, b, stride=2, padding=1),
        lambda: T.affine_norm(x, [1.5, -2.0, 0.25], [0.1, 0.0, -3.0]),
        lambda: T.relu(x),
        lambda: T.avg_pool_to(x, 3, 2),
        lambda: T.bilinear_resize(x, 5, 11),
        lambda: T.add(x, x),
        lambda: T.concat_channels([x, x[:1]]),
        lambda: T.resize_argmax(x, 5, 11),
    ]
    for call in calls:
        assert np.array_equal(call(), call())


def test_all_ops_finite_on_random_inputs():
    rng = np.random.default_rng(14)
    for _ in range(5):
        x = rng.normal(size=(3, 8, 8)).astype(np.float32) * 100
        k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        outs = [
            T.conv2d(x, k, rng.normal(size=4), stride=1, padding=1),
            T.affine_norm(x, rng.normal(size=3), rng.normal(size=3)),
            T.relu(x),
            T.avg_pool_to(x, 4, 4),
            T.bilinear_resize(x, 5, 13),
            T.add(x, x),
            T.concat_channels([x, x]),
        ]
        for out in outs:
            assert np.isfinite(out).all()
