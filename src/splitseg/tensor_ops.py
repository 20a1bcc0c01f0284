"""Dense float32 tensor primitives for the segmentation network.

A tensor is a (channels, height, width) float32 ndarray in channel-major,
row-major layout. Every operation here is a pure function: no argument is
mutated except an explicit `out`, and repeated calls on identical inputs
give bitwise-identical outputs.

Work that already runs in more than one block (a conv2d with more than one
row chunk, a resize with more than one block of output rows) splits each
chunk or block into at most two balanced row parts, none smaller than
_BLOCK_BYTES // 4. The parts are a function of the shape alone; the thread
count in `threads` decides only how many threads run them. Every thread
calls only numpy and BLAS, which release the GIL, and writes disjoint rows
of buffers that the calling thread allocated, so memory is that of the
one-thread form. All threads are joined before the call returns, so every
function stays pure. The bits depend on the shape and on the sgemm kernel
that OpenBLAS picks for the CPU, never on the thread count: chunk bounds,
row parts, block steps, tap order and accumulation, and so every sgemm
call, are the same at any thread count. Work within one block, which is
every desk-scale layer, starts no thread. Every resize, the row source a
conv reads included, is one _ResizeRows run through its one block loop, in
which each thread takes the same row parts of every block.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

# Threads that run the row parts of a chunk or block: the cores this process
# may run on. It changes no bit. A process-pool worker sets it to 1, so that a
# pool uses one core per worker.
threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def as_tensor(data) -> np.ndarray:
    """Coerce array-like data to a (channels, height, width) float32 array."""
    x = np.asarray(data, dtype=np.float32)
    if x.ndim != 3:
        raise ValueError(f"tensor must have shape (channels, height, width), got {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1 or x.shape[2] < 1:
        raise ValueError(f"tensor dimensions must be positive, got {x.shape}")
    return x


def conv2d(x, kernels, bias, stride: int = 1, padding: int = 0) -> np.ndarray:
    """2-D convolution (cross-correlation) with zero padding.

    kernels has shape (out_ch, in_ch, k, k) with odd k; bias has one entry
    per output channel. Output spatial size follows
    floor((dim + 2*padding - k) / stride) + 1. Where the layer runs in row
    chunks, `x` may also be a private row source (`_Rows`).
    """
    conv = _Conv(x, kernels, bias, stride, padding)
    out = np.empty(conv.shape, dtype=np.float32)
    for r0, r1 in conv.chunks:
        conv.add_taps(r0, r1, out[:, r0:r1])
    return out


class _Conv:
    """One conv2d call, run by output row chunks: for each (r0, r1) of
    `chunks`, add_taps(r0, r1, dst) writes output rows r0..r1-1 into `dst`,
    of shape (out_ch, r1 - r0, out_w), and returns the row parts it cut them
    into, as (a, z, the part's rows a..z-1). Without `dst` they stay where
    they were summed: a new array in the one-call regime, else each part's
    contiguous accumulator stretch, whose rows keep the pitch; the bias is
    added to every column, and the columns from out_w on are not output.

    Arithmetic contract: acc starts at +0.0, each tap (dy, dx) in order adds
    one product (out_ch x in_ch) @ (in_ch x pixels), the bias is added last.
    Both regimes fill a slab of images of the zero-padded input, q per row
    phase, from the input as a row source (_Rows, _fill_phase_slab), run one
    tap loop over it, and differ only in the slab's layout, so only in the
    bytes they move. Each tap's operand is a flat view of one image, whose
    row stride np.matmul hands to sgemm (np.dot would copy it); the weights
    come from one contiguous (k, k, out_ch, in_ch) copy outside a unit
    dimension.
    """

    def __init__(self, x, kernels, bias, stride: int, padding: int):
        lazy = isinstance(x, _Rows)
        x = x if lazy else as_tensor(x)
        w = np.asarray(kernels, dtype=np.float32)
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ValueError(f"kernels must have shape (out_ch, in_ch, k, k), got {w.shape}")
        out_ch, in_ch, k, _ = w.shape
        if k % 2 != 1:
            raise ValueError(f"kernel size must be odd, got {k}")
        if in_ch != x.shape[0]:
            raise ValueError(f"channel mismatch: input has {x.shape[0]} channels, kernels expect {in_ch}")
        b = np.asarray(bias, dtype=np.float32).reshape(-1, 1, 1)
        if b.size != out_ch:
            raise ValueError(f"bias length {b.size} != out_ch {out_ch}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")

        _, h, wd = x.shape
        out_h = (h + 2 * padding - k) // stride + 1
        out_w = (wd + 2 * padding - k) // stride + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(
                f"empty output: input {h}x{wd}, kernel {k}, stride {stride}, padding {padding}"
            )
        self.shape, self.stride, self.padding = (out_ch, out_h, out_w), stride, padding
        self._w, self._bias, self._buf = w, b, None
        chunks = _row_chunks(k, in_ch, out_ch, stride, out_h, out_w)
        if chunks == 1:
            # Small layer, single tap, or a unit dimension: one call per tap of
            # the full width out_h*out_w, because small sgemm calls may round a
            # column differently when their width changes. The slab holds one
            # image per row phase and column tap, of pitch out_w, so a tap's
            # operand has a plain tap-by-tap tensordot's M, N, K and values
            # (only ldb differs). At a unit dimension np.dot takes gemv, whose
            # bits depend on operand strides, so there it gets that tensordot's
            # operands: the weight view and a contiguous copy of the tap.
            if lazy:
                raise ValueError("a row source is read only by conv2d's chunked regime")
            self.chunks, self._q, self._pitch = [(0, out_h)], k, out_w
        else:
            # Larger layer: balanced row chunks. Per chunk, one reused slab holds
            # the rows of the stride-phase images that the chunk's taps read.
            # A chunk's rows are cut into row parts by its shape. Each part
            # sums its taps in its own compact out_ch x rows x pitch stretch of
            # a chunk accumulator, which stays in cache across the taps, as
            # each product does in the part's stretch of the product buffer;
            # then it adds the bias and keeps out_w of each row's pitch
            # columns, dropping the `reach` extra ones.
            bounds = [out_h * i // chunks for i in range(chunks + 1)]
            self.chunks = list(zip(bounds, bounds[1:]))
            self._q, self._pitch = min(k, stride), out_w + (k - 1) // stride
        self._x = x if lazy else _Rows(x)

    def add_taps(self, r0: int, r1: int, dst: np.ndarray | None = None) -> list[tuple[int, int, np.ndarray]]:
        # Buffers are allocated here, after the caller's output: freed, they
        # leave no hole under a longer-lived array in malloc's heap.
        (out_ch, out_h, out_w), stride, w, q, pitch = self.shape, self.stride, self._w, self._q, self._pitch
        in_ch, k = w.shape[1], w.shape[2]
        m, reach = min(k, stride), (k - 1) // stride  # reach: how far, in output pixels, a tap reaches
        unit = min(out_ch, in_ch) == 1 or out_h * out_w == 1
        if self._buf is None:
            self._wt = None if unit else np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (k, k, out_ch, in_ch)
            most = -(-out_h // len(self.chunks))  # rows of the longest chunk
            rows = most + reach + (q < k)  # a window past a row's end reads one more row
            self._flat = np.zeros((m, q, in_ch, rows * pitch), dtype=np.float32)
            self._slab = self._flat.reshape(m, q, in_ch, rows, pitch)
            self._buf = np.empty(out_ch * most * pitch, dtype=np.float32)
        _fill_phase_slab(self._slab, self._x, stride, self.padding, r0, r1 - r0 + reach)
        self._x.drop(max(0, r1 * stride - self.padding))  # the next chunk reads from there on
        flat, wt, buf = self._flat, self._wt, self._buf
        if len(self.chunks) == 1:  # pitch is out_w: the taps sum in the output itself
            parts = [(0, out_h)]
            acc = (np.empty(self.shape, dtype=np.float32) if dst is None else dst).reshape(-1)
        else:  # allocated after the fill, for which a row source may have made rows
            parts = _row_parts(r1 - r0, 4 * out_ch * pitch)
            acc = np.empty(out_ch * (r1 - r0) * pitch, dtype=np.float32)
        made = [None] * len(parts)

        def taps(t: int) -> None:
            a, z = parts[t]  # rows of this chunk
            n = (z - a) * pitch
            prod = buf[out_ch * a * pitch:out_ch * z * pitch].reshape(out_ch, n)
            total = acc[out_ch * a * pitch:out_ch * z * pitch].reshape(out_ch, n)
            for dy in range(k):
                for dx in range(k):
                    start = (dy // m + a) * pitch + dx // q
                    tap = flat[dy % m, dx % q, :, start:start + n]
                    if unit:
                        np.dot(w[:, :, dy, dx], np.ascontiguousarray(tap), out=prod)
                    else:
                        np.matmul(wt[dy, dx], tap, out=prod)
                    if dy or dx:
                        total += prod
                    else:  # the sum starts at +0.0: a -0.0 product adds up to +0.0
                        np.add(prod, 0.0, out=total)
            part = total.reshape(out_ch, z - a, pitch)
            out = part if dst is None else dst[:, a:z]  # without dst, pitch-wide
            np.add(part[:, :, :out.shape[2]], self._bias, out=out)
            made[t] = a, z, out

        _on_threads(taps, len(parts))
        return made


# Bytes of one tap's product that conv2d keeps live: about half a 2-4 MiB L2.
# A layer within it runs as one chunk; a larger one is cut into balanced row
# chunks of more than half of it. OpenBLAS's small-matrix sgemm kernel
# (M*N*K <= 1e6 on SkylakeX) rounds some columns by call width once K >= 32;
# there a 1 MiB product is past that size, in the packed kernel, where a
# column's value does not depend on the call width. bilinear_resize's second
# pass and resize_argmax work on blocks of at most this many bytes across all
# channels.
_BLOCK_BYTES = 2 << 20


def _row_chunks(k: int, in_ch: int, out_ch: int, stride: int, out_h: int, out_w: int) -> int:
    """Output row chunks conv2d runs a layer in. 1 is its one-call regime:
    a tap product within _BLOCK_BYTES, a single tap or a unit channel count."""
    if k == 1 or min(out_ch, in_ch) == 1:
        return 1
    pitch = out_w + (k - 1) // stride
    return min(out_h, -(-4 * out_ch * out_h * pitch // _BLOCK_BYTES))


def _row_parts(rows: int, row_bytes: int) -> list[tuple[int, int]]:
    """Balanced parts [a, z) of `rows` rows of `row_bytes` bytes each: two,
    or one where a part would hold under _BLOCK_BYTES // 4. They depend on the
    shape alone, so every sgemm call does too, at any thread count. The floor
    makes a part worth a thread's start-up and, on OpenBLAS's SkylakeX kernel,
    keeps a conv part's sgemm call past the small-matrix kernel, whose
    rounding depends on the call width from K >= 32 (M*N*K over 4e6)."""
    n = 2 if rows // 2 * row_bytes >= _BLOCK_BYTES // 4 else 1
    cuts = [rows * i // n for i in range(n + 1)]
    return list(zip(cuts, cuts[1:]))


def _on_threads(fn, n: int) -> None:
    """Run parts fn(0), ..., fn(n - 1) on m = min(threads, n) threads,
    round-robin: thread t runs parts t, t + m, ... in turn. Thread 0 is this
    one; each other is a new thread in a copy of this thread's context
    (numpy's errstate lives there). Every part runs even where another
    raises; once all are joined, the exception of the lowest-numbered part
    that raised is raised here."""
    m, errors = min(threads, n), {}

    def run(t):
        for part in range(t, n, m):
            try:
                fn(part)
            except BaseException as exc:  # re-raised on the calling thread
                errors[part] = exc

    others = [threading.Thread(target=contextvars.copy_context().run, args=(run, t)) for t in range(1, m)]
    for th in others:
        th.start()
    run(0)
    for th in others:
        th.join()
    if errors:
        raise errors[min(errors)]


def _fill_phase_slab(slab: np.ndarray, src: _Rows, stride: int, padding: int, row0: int, rows: int) -> None:
    """Write rows row0..row0+rows-1 of the phase images of zero-padded `src`
    into `slab`, of shape (m, q, c, more than rows, cols) with m = min(k,
    stride), and q = m (one image per stride phase) or k (one per column tap).

    Image (py, px) holds padded pixel (i*stride + py, j*stride + px) at slab
    row i - row0, column j. Slab rows that hold no input pixel, from row
    `rows` on included, are zeroed here on every fill, so a flat window may
    run past the last row; columns that hold none are never written and must
    be zero. No input row before row0*stride - padding is read.
    """
    _, h, w = src.shape
    cols = slab.shape[4]
    for py in range(slab.shape[0]):
        lo, hi, src_r = _span(py, h, row0, rows, stride, padding)
        images = slab[py]
        images[:, :, :lo] = 0.0
        images[:, :, hi:] = 0.0
        for px in range(slab.shape[1]):
            c_lo, c_hi, src_c = _span(px, w, 0, cols, stride, padding)
            if hi > lo and c_hi > c_lo:
                src.read(images[px, :, lo:hi, c_lo:c_hi], src_r, src_c)


def _span(phase: int, size: int, first: int, n: int, stride: int, padding: int):
    """Of the n indices first..first+n-1 of a stride phase of an axis of
    `size` input pixels zero-padded by `padding` (phase index i holds padded
    pixel i*stride + phase), those [lo, hi) that hold an input pixel, counted
    from `first`, and the slice of input pixels they hold."""
    lo = max(first, -(-(padding - phase) // stride))
    hi = max(lo, min(first + n, (size - 1 + padding - phase) // stride + 1))
    at = lo * stride + phase - padding
    return lo - first, hi - first, slice(at, at + (hi - lo) * stride, stride)


class _Rows:
    """A (c, h, w) tensor as conv2d's slab fill reads it; this one is an
    array. Per row chunk, conv2d calls read(dst, rows, cols) once per slab
    image, which writes rows `rows` and columns `cols` (slices with the conv's
    stride) of the tensor into `dst`, then, before the chunk's taps,
    drop(row), after which no read reaches a row before `row`. The
    subclasses, which only the chunked regime reads, make their rows when a
    read needs them instead, so that the tensor never exists whole. They run on the calling thread, which
    allocates every buffer, as conv2d does."""

    def __init__(self, x: np.ndarray):
        self.x, self.shape = x, x.shape

    def drop(self, row: int) -> None:
        pass

    def read(self, dst: np.ndarray, rows: slice, cols: slice) -> None:
        np.copyto(dst, self.x[:, rows, cols])


class _ConvRows(_Rows):
    """Rows of epilogue(conv2d(...)) for the conv2d call `conv`, made in that
    call's own row chunks when a read first reaches them, and let go once
    drop() passes them. A chunk's rows are its row parts' rows where add_taps
    summed them, with no copy. `epilogue(out)` must be elementwise and work
    in place on a part's fresh rows, which it gets pitch-wide and contiguous
    (on the strided view without the extra columns an affine map and ReLU
    took 2.5 times as long); no read reaches the extra columns. A chunk runs
    the same slab fill, sgemm calls and bias add as in the whole call, then
    the epilogue, so its rows have the bits of the whole call followed by
    the epilogue."""

    def __init__(self, conv: _Conv, epilogue):
        self._conv = conv
        self._epilogue = epilogue
        self.shape = conv.shape
        self._todo = iter(conv.chunks)
        self._made: list[tuple[int, int, np.ndarray]] = []  # (r0, r1, rows r0..r1-1)

    def drop(self, row: int) -> None:
        self._made = [made for made in self._made if made[1] > row]

    def read(self, dst: np.ndarray, rows: slice, cols: slice) -> None:
        first, step, n = rows.start, rows.step, dst.shape[1]
        while not self._made or self._made[-1][1] <= first + (n - 1) * step:
            r0, r1 = next(self._todo)
            for a, z, out in self._conv.add_taps(r0, r1):
                self._epilogue(out)
                self._made.append((r0 + a, r0 + z, out))
        for r0, r1, out in self._made:
            # reads a..z-1 fall in this chunk: r0 <= first + i * step < r1
            a, z = max(0, -(-(r0 - first) // step)), min(n, -(-(r1 - first) // step))
            if a < z:
                top = first + a * step - r0
                np.copyto(dst[:, a:z], out[:, top:top + (z - a - 1) * step + 1:step, cols])


class _ResizeRows(_Rows):
    """bilinear_resize(x, out_h, out_w), run by blocks of output rows; as a
    row source, the rows a read asks for, so the resize never exists whole.

    The constructor runs the first pass, the lerp along each source row.
    For the output rows in slice `sel`, gather(sel, top) writes the first of
    the two row-lerped rows they lerp between into C-contiguous `top`, and
    lerp(sel, top, bot) lerps `top` toward the second in place, with
    C-contiguous `bot` of its shape as scratch. A resized row is elementwise
    in the row-lerped input, so a row made on its own has the whole
    resize's bits."""

    def __init__(self, x, out_h: int, out_w: int):
        x = as_tensor(x)
        if out_h < 1 or out_w < 1:
            raise ValueError(f"output size must be positive, got {out_h}x{out_w}")
        c, h, w = x.shape
        self.shape = (c, out_h, out_w)
        ys = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
        xs = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
        self._y0 = np.floor(ys).astype(np.int64)
        x0 = np.floor(xs).astype(np.int64)
        self._y1 = np.minimum(self._y0 + 1, h - 1)
        self._wy = (ys - self._y0).astype(np.float32)[None, :, None]
        wx = (xs - x0).astype(np.float32)

        # separable lerp: along each source row once, then between the two rows;
        # every output element sees the same float32 operations as the 2-D form
        self._rows = np.take(x, x0, axis=2)
        right = np.take(x, np.minimum(x0 + 1, w - 1), axis=2)
        right -= self._rows
        right *= wx
        self._rows += right

    # Every index is in range. With mode "clip" np.take writes straight into
    # a C-contiguous `out`; with "raise" it would fill a copy of it first.
    def gather(self, sel: slice, top: np.ndarray) -> None:
        np.take(self._rows, self._y0[sel], axis=1, out=top, mode="clip")

    def lerp(self, sel: slice, top: np.ndarray, bot: np.ndarray) -> None:
        np.take(self._rows, self._y1[sel], axis=1, out=bot, mode="clip")
        bot -= top
        bot *= self._wy[:, sel]
        top += bot  # lerp form keeps constant inputs exactly constant

    def buffer(self):
        """One block of output rows of every channel, as a function: rows(at, n)
        is a C-contiguous (c, n, out_w) view of its rows at..at+n-1."""
        c, out_h, out_w = self.shape
        flat = np.empty(c * min(_block_rows(c, out_w), out_h) * out_w, dtype=np.float32)
        return lambda at, n: flat[c * at * out_w:c * (at + n) * out_w].reshape(c, n, out_w)

    def blocks(self, n: int, fn) -> None:
        """Call fn(r0, r1, at) on output rows 0..n-1 by blocks of _block_rows
        rows: rows r0..r1-1, held at rows at.. of a block buffer. A resize
        whose output fits in one block runs on this thread; otherwise a block
        is cut into row parts, and one thread runs part p of every block. One
        join per call: a join after each block measured slower."""
        c, out_h, out_w = self.shape
        step = _block_rows(c, out_w)
        parts = [(0, step)] if step >= out_h else _row_parts(min(step, n), 4 * c * out_w)

        def run(t: int) -> None:
            a, z = parts[t]
            for b0 in range(0, n - a, step):
                fn(b0 + a, min(b0 + z, n), a)

        _on_threads(run, len(parts))

    def read(self, dst: np.ndarray, rows: slice, cols: slice) -> None:
        top, bot = self.buffer(), self.buffer()  # per read: freed before the reader's taps

        def run(r0: int, r1: int, at: int) -> None:
            sel = slice(rows.start + r0 * rows.step, rows.start + r1 * rows.step, rows.step)
            block = top(at, r1 - r0)
            self.gather(sel, block)
            self.lerp(sel, block, bot(at, r1 - r0))
            np.copyto(dst[:, r0:r1], block[:, :, cols])

        self.blocks(dst.shape[1], run)


def _check_out(out, shape) -> None:
    """`out`, when given, must be a float32 array of the result's shape; it
    may be an input itself, as every op that takes it is elementwise."""
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float32
                                and out.shape == shape):
        raise ValueError(f"out must be a float32 array of shape {shape}")


def affine_norm(x, scale, shift, out=None) -> np.ndarray:
    """Per-channel affine map out[c] = scale[c] * x[c] + shift[c], written
    into `out` when given (which may be `x`)."""
    x = as_tensor(x)
    s = np.asarray(scale, dtype=np.float32).reshape(-1)
    t = np.asarray(shift, dtype=np.float32).reshape(-1)
    if s.size != x.shape[0] or t.size != x.shape[0]:
        raise ValueError(
            f"scale/shift length ({s.size}/{t.size}) must equal channel count {x.shape[0]}"
        )
    _check_out(out, x.shape)
    out = np.multiply(x, s[:, None, None], out=out)
    out += t[:, None, None]  # same two float32 roundings as x * s + t
    return out


def relu(x, out=None) -> np.ndarray:
    """max(x, 0), written into `out` when given (which may be `x`)."""
    x = as_tensor(x)
    _check_out(out, x.shape)
    return np.maximum(x, np.float32(0.0), out=out)


def avg_pool_to(x, out_h: int, out_w: int) -> np.ndarray:
    """Adaptive average pooling to an arbitrary (out_h, out_w) grid.

    Bin (i, j) averages the half-open window
    [floor(i*H/out_h), floor((i+1)*H/out_h)) x [floor(j*W/out_w), floor((j+1)*W/out_w)).
    """
    x = as_tensor(x)
    c, h, w = x.shape
    if not (1 <= out_h <= h) or not (1 <= out_w <= w):
        raise ValueError(f"pool grid {out_h}x{out_w} exceeds spatial size {h}x{w}")
    ys = [(i * h) // out_h for i in range(out_h + 1)]
    xs = [(j * w) // out_w for j in range(out_w + 1)]
    out = np.empty((c, out_h, out_w), dtype=np.float32)
    for i in range(out_h):
        for j in range(out_w):
            out[:, i, j] = x[:, ys[i]:ys[i + 1], xs[j]:xs[j + 1]].mean(axis=(1, 2))
    return out


def bilinear_resize(x, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling with half-pixel centers and edge clamping.

    Source coordinate for destination index d is (d + 0.5) * in/out - 0.5,
    clamped to [0, in - 1].
    """
    rs = _ResizeRows(x, out_h, out_w)
    out = np.empty(rs.shape, dtype=np.float32)
    rs.gather(slice(0, out_h), out)
    bot = rs.buffer()
    rs.blocks(out_h, lambda r0, r1, at: rs.lerp(slice(r0, r1), out[:, r0:r1], bot(at, r1 - r0)))
    return out


def resize_argmax(x, out_h: int, out_w: int) -> np.ndarray:
    """np.argmax(bilinear_resize(x, out_h, out_w), axis=0), bit for bit, as
    int32 (out_h, out_w) labels. Each block of output rows is resized into
    one reused buffer and reduced to labels, so the resized array never
    exists whole."""
    rs = _ResizeRows(x, out_h, out_w)
    labels = np.zeros((out_h, out_w), dtype=np.int32)
    top, bot = rs.buffer(), rs.buffer()

    def run(r0: int, r1: int, at: int) -> None:
        block, scratch = top(at, r1 - r0), bot(at, r1 - r0)
        rs.gather(slice(r0, r1), block)
        rs.lerp(slice(r0, r1), block, scratch)
        # done with `scratch`: its first channel holds the running maximum
        _argmax_into(block.reshape(rs.shape[0], -1), labels[r0:r1].reshape(-1), scratch[0].reshape(-1))

    rs.blocks(out_h, run)
    return labels


def _block_rows(c: int, out_w: int) -> int:
    """Output rows per block of a resize: at most _BLOCK_BYTES across all
    channels, and at least one."""
    return max(1, _BLOCK_BYTES // (4 * c * out_w))


def _argmax_into(flat: np.ndarray, lab: np.ndarray, best: np.ndarray) -> None:
    """Set zeroed int32 `lab` (pixels,) to the first-maximum row of `flat`
    (channels, pixels), NaN counting as the largest value; float32 `best`
    (pixels,) is scratch for the running maximum."""
    np.copyto(best, flat[0])
    greater = np.empty(best.shape, dtype=bool)
    for ch in range(1, flat.shape[0]):
        v = flat[ch]
        np.greater(v, best, out=greater)  # strict: a tie keeps the first maximum
        np.copyto(lab, ch, where=greater)
        np.maximum(best, v, out=best)  # propagates NaN, which flags the pixel
    nan = np.flatnonzero(np.isnan(best, out=greater))
    if nan.size:
        lab[nan] = np.argmax(flat[:, nan], axis=0)


def add(a, b, out=None) -> np.ndarray:
    """a + b, written into `out` when given (which may be `a` or `b`)."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in add: {a.shape} vs {b.shape}")
    _check_out(out, a.shape)
    return np.add(a, b, out=out)


def concat_channels(parts) -> np.ndarray:
    """Stack tensors along the channel axis; spatial dims must agree."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat_channels needs at least one tensor")
    hw = parts[0].shape[1:]
    for p in parts[1:]:
        if p.shape[1:] != hw:
            raise ValueError(f"spatial mismatch in concat: {p.shape[1:]} vs {hw}")
    return np.concatenate(parts, axis=0)
