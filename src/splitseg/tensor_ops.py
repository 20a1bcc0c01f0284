"""Dense float32 tensor primitives for the segmentation network.

A tensor is a (channels, height, width) float32 ndarray in channel-major,
row-major layout. Every operation here is a pure function: no argument is
mutated except an explicit `out`, and repeated calls on identical inputs
give bitwise-identical outputs.

A conv2d that runs in more than one row chunk splits each chunk into at
most two balanced row parts, none smaller than _BLOCK_BYTES // 4. The parts
are a function of the shape alone; the thread count in `threads` decides
only how many threads run them. Every thread calls only numpy and BLAS,
which release the GIL, and writes disjoint rows of buffers that the
calling thread allocated, so memory is that of the one-thread form. All
threads are joined before the call returns, so every function stays pure.
The bits depend on the shape and on the sgemm kernel that OpenBLAS picks
for the CPU (openblas_core names it), never on the thread count: chunk
bounds, row parts, tap order and accumulation, and so every sgemm call,
are the same at any thread count. A conv2d in one chunk, which is every
desk-scale layer, starts no thread. Every resize, the row source a conv
reads included, is one _ResizeRows run through its one step loop on the
calling thread, in steps of at most _BLOCK_BYTES // 4 bytes that stay in a
core's L2; threads there measured slower.

What a call derives from shapes alone is derived once per shape: a conv2d
call takes its checks, chunks, slab layout and slab fill from one cached
_ConvPlan, and a resize its index and weight tables from _resize_tables.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

# Threads that run the row parts of a conv2d chunk: the cores this process
# may run on. It changes no bit. A process-pool worker sets it to 1, so that a
# pool uses one core per worker.
threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def openblas_core() -> str | None:
    """The name of the kernel set that numpy's bundled OpenBLAS picked for
    this CPU (OPENBLAS_CORETYPE overrides it), or None where it is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


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
    dimension. Everything the call derives from its shapes, stride and
    padding comes from one _ConvPlan, made once per key.
    """

    def __init__(self, x, kernels, bias, stride: int, padding: int):
        lazy = isinstance(x, _Rows)
        x = x if lazy else as_tensor(x)
        w, b = np.asarray(kernels, dtype=np.float32), np.asarray(bias, dtype=np.float32)
        self.plan = plan = _conv_plan(x.shape, w.shape, b.size, stride, padding, _BLOCK_BYTES)
        if lazy and len(plan.chunks) == 1:
            raise ValueError("a row source is read only by conv2d's chunked regime")
        self.shape, self.chunks = plan.shape, plan.chunks
        self._w, self._bias, self._buf, self._x = w, b.reshape(-1, 1, 1), None, x if lazy else _Rows(x)

    def add_taps(self, r0: int, r1: int, dst: np.ndarray | None = None) -> list[tuple[int, int, np.ndarray]]:
        # Buffers are allocated here, after the caller's output: freed, they
        # leave no hole under a longer-lived array in malloc's heap.
        plan, w, k = self.plan, self._w, self._w.shape[2]
        (out_ch, out_h, out_w), m, q, pitch, unit = plan.shape, plan.m, plan.q, plan.pitch, plan.unit
        if self._buf is None:
            self._wt = None if unit else np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (k, k, out_ch, in_ch)
            self._slab = np.zeros(plan.slab, dtype=np.float32)
            self._flat = self._slab.reshape(m, q, plan.slab[2], -1)
            self._buf = np.empty(plan.buf, dtype=np.float32)
        _fill_phase_slab(self._slab, self._x, plan.fills[r0])
        self._x.drop(max(0, r1 * plan.stride - plan.padding))  # the next chunk reads from there on
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
# column's value does not depend on the call width. Every resize's second
# pass, _ResizeRows.steps, lerps steps of at most a quarter of this many
# bytes across all channels: a step's rows and its lerp scratch, 1 MiB, stay
# in half of a 2 MiB per-core L2. resize_argmax of the desk head, 2 MiB of
# output, took 1.7 ms in 512 KiB steps and 2.8-2.9 ms in one step (medians
# of 400 alternating calls, one thread, 2 vCPUs with AVX-512).
_BLOCK_BYTES = 2 << 20


def _row_chunks(k: int, in_ch: int, out_ch: int, stride: int, out_h: int, out_w: int, block_bytes: int) -> int:
    """Output row chunks conv2d runs a layer in, for a tap product budget
    of `block_bytes` (_BLOCK_BYTES in a conv2d call). 1 is its one-call
    regime: a product within it, a single tap or a unit channel count."""
    if k == 1 or min(out_ch, in_ch) == 1:
        return 1
    pitch = out_w + (k - 1) // stride
    return min(out_h, -(-4 * out_ch * out_h * pitch // block_bytes))


def _row_parts(rows: int, row_bytes: int) -> list[tuple[int, int]]:
    """Balanced parts [a, z) of a conv2d chunk's `rows` rows of `row_bytes`
    bytes each: two, or one where a part would hold under _BLOCK_BYTES // 4.
    They depend on the shape alone, so every sgemm call does too, at any
    thread count. The floor makes a part worth a thread's start-up and, on
    OpenBLAS's SkylakeX kernel, keeps a part's sgemm call past the
    small-matrix kernel, whose rounding depends on the call width from
    K >= 32 (M*N*K over 4e6)."""
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


class _ConvPlan:
    """What a conv2d call derives from its input shape, kernel shape, bias
    size, stride and padding: the argument checks, the output `shape`, the
    row `chunks`, the slab's layout (`slab`: its shape (m, q, in_ch, rows,
    pitch); `buf`: the product buffer's length), whether a unit dimension
    sends the taps to gemv (`unit`), and per chunk's first row r0 the slab
    fill `fills[r0]` (see _slab_fill). `block_bytes` sizes the chunks (see
    _row_chunks); a conv2d call passes _BLOCK_BYTES. _conv_plan makes one
    per key, which every call of that key shares and only reads."""

    def __init__(self, in_shape, w_shape, bias_size: int, stride: int, padding: int, block_bytes: int):
        if len(w_shape) != 4 or w_shape[2] != w_shape[3]:
            raise ValueError(f"kernels must have shape (out_ch, in_ch, k, k), got {w_shape}")
        out_ch, in_ch, k, _ = w_shape
        if k % 2 != 1:
            raise ValueError(f"kernel size must be odd, got {k}")
        if in_ch != in_shape[0]:
            raise ValueError(f"channel mismatch: input has {in_shape[0]} channels, kernels expect {in_ch}")
        if bias_size != out_ch:
            raise ValueError(f"bias length {bias_size} != out_ch {out_ch}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")

        _, h, wd = in_shape
        out_h, out_w = ((n + 2 * padding - k) // stride + 1 for n in (h, wd))
        if out_h < 1 or out_w < 1:
            raise ValueError(
                f"empty output: input {h}x{wd}, kernel {k}, stride {stride}, padding {padding}"
            )
        self.shape, self.stride, self.padding = (out_ch, out_h, out_w), stride, padding
        self.m, reach = min(k, stride), (k - 1) // stride  # reach: how far, in output pixels, a tap reaches
        self.unit = min(out_ch, in_ch) == 1 or out_h * out_w == 1
        chunks = _row_chunks(k, in_ch, out_ch, stride, out_h, out_w, block_bytes)
        if chunks == 1:
            # Small layer, single tap, or a unit dimension: one call per tap of
            # the full width out_h*out_w, because small sgemm calls may round a
            # column differently when their width changes. The slab holds one
            # image per row phase and column tap, of pitch out_w, so a tap's
            # operand has a plain tap-by-tap tensordot's M, N, K and values
            # (only ldb differs). At a unit dimension np.dot takes gemv, whose
            # bits depend on operand strides, so there it gets that tensordot's
            # operands: the weight view and a contiguous copy of the tap.
            self.chunks, self.q, self.pitch = ((0, out_h),), k, out_w
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
            self.chunks, self.q, self.pitch = tuple(zip(bounds, bounds[1:])), min(k, stride), out_w + reach
        most = -(-out_h // len(self.chunks))  # rows of the longest chunk
        # a window past a row's end reads one more row
        self.slab = (self.m, self.q, in_ch, most + reach + (self.q < k), self.pitch)
        self.buf = out_ch * most * self.pitch
        self.fills = {r0: _slab_fill(self.slab, in_shape, stride, padding, r0, r1 - r0 + reach)
                      for r0, r1 in self.chunks}


_conv_plan = functools.lru_cache(maxsize=256)(_ConvPlan)


def _slab_fill(slab_shape, in_shape, stride: int, padding: int, row0: int, rows: int) -> tuple:
    """How _fill_phase_slab writes rows row0..row0+rows-1 of the phase images
    of a zero-padded (c, h, w) input into a slab of `slab_shape` (m, q, c,
    more than rows, cols), m = min(k, stride), and q = m (one image per
    stride phase) or k (one per column tap): (zeros, reads), the slab regions
    to zero, and per image that holds input pixels, (its region, the input
    rows, the input columns) to read into it, as slices with the stride.

    Image (py, px) holds padded pixel (i*stride + py, j*stride + px) at slab
    row i - row0, column j. Slab rows that hold no input pixel, from row
    `rows` on included, are zeroed on every fill, so a flat window may run
    past the last row; columns that hold none are never written and must be
    zero. No input row before row0*stride - padding is read.
    """
    (m, q, _, height, cols), every, zeros, reads = slab_shape, slice(None), [], []
    for py in range(m):
        first, end = _held(py, in_shape[1], stride, padding)
        lo, hi = max(first - row0, 0), max(first - row0, 0, min(rows, end - row0))
        zeros += [(py, every, every, at) for at in (slice(0, lo), slice(hi, height)) if at.start < at.stop]
        at = (row0 + lo) * stride + py - padding
        src_r = slice(at, at + (hi - lo) * stride, stride)
        for px in range(q):
            c_first, c_end = _held(px, in_shape[2], stride, padding)
            c_lo, c_hi = max(c_first, 0), max(c_first, 0, min(cols, c_end))
            if hi > lo and c_hi > c_lo:
                at = c_lo * stride + px - padding
                src_c = slice(at, at + (c_hi - c_lo) * stride, stride)
                reads.append(((py, px, every, slice(lo, hi), slice(c_lo, c_hi)), src_r, src_c))
    return tuple(zeros), tuple(reads)


def _held(phase: int, size: int, stride: int, padding: int) -> tuple[int, int]:
    """The indices [first, end) of a stride phase of an axis of `size` input
    pixels zero-padded by `padding` that hold an input pixel: phase index i
    holds padded pixel i*stride + phase. end may be below first."""
    return -(-(padding - phase) // stride), (size - 1 + padding - phase) // stride + 1


def _fill_phase_slab(slab: np.ndarray, src: _Rows, fill: tuple) -> None:
    """Fill `slab` from row source `src` as _slab_fill's `fill` (zeros,
    reads) says."""
    for at in fill[0]:
        slab[at] = 0.0
    for at, rows, cols in fill[1]:
        src.read(slab[at], rows, cols)


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
    """bilinear_resize(x, out_h, out_w), run by steps of output rows; as a
    row source, the rows a read asks for, so the resize never exists whole.

    The constructor runs the first pass, the lerp along each source row,
    with index and weight tables that _resize_tables makes once per shape.
    steps() runs the second pass, the lerp between two row-lerped rows per
    output row, in steps on the calling thread, and hands each step's
    resized rows to a sink. A resized row is elementwise in the row-lerped
    input, so a row made in any step has the whole resize's bits."""

    def __init__(self, x, out_h: int, out_w: int):
        x = as_tensor(x)
        if out_h < 1 or out_w < 1:
            raise ValueError(f"output size must be positive, got {out_h}x{out_w}")
        c, h, w = x.shape
        self.shape = (c, out_h, out_w)
        self._y0, self._y1, self._wy, x0, x1, wx = _resize_tables(h, w, out_h, out_w)

        # separable lerp: along each source row once, then between the two rows;
        # every output element sees the same float32 operations as the 2-D form
        self._rows = np.take(x, x0, axis=2)
        right = np.take(x, x1, axis=2)
        right -= self._rows
        right *= wx
        self._rows += right

    def steps(self, n: int, first: int, stride: int, fn) -> None:
        """Resize output rows first, first + stride, ... (n of them) and call
        fn(r0, r1, rows, scratch) on their rows r0..r1-1 of this run: `rows`
        holds them resized and `scratch`, which fn may overwrite, is of the
        same shape; both are C-contiguous (c, r1 - r0, out_w) steps of two
        buffers of this call. The run goes on this thread, in steps of
        _block_rows rows, so that a step's rows and its scratch stay in a
        core's L2."""
        c, _, out_w = self.shape
        step = min(_block_rows(c, out_w), n)
        # per call, so a row source's are freed before its reader's taps
        top, bot = (np.empty(c * step * out_w, dtype=np.float32) for _ in range(2))
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            rows, scratch = (buf[:c * (r1 - r0) * out_w].reshape(c, -1, out_w) for buf in (top, bot))
            sel = slice(first + r0 * stride, first + r1 * stride, stride)
            # Every index is in range. With mode "clip" np.take writes straight
            # into a C-contiguous `out`; with "raise" it would fill a copy first.
            np.take(self._rows, self._y0[sel], axis=1, out=rows, mode="clip")
            np.take(self._rows, self._y1[sel], axis=1, out=scratch, mode="clip")
            scratch -= rows
            scratch *= self._wy[:, sel]
            rows += scratch  # lerp form keeps constant inputs exactly constant
            fn(r0, r1, rows, scratch)

    def read(self, dst: np.ndarray, rows: slice, cols: slice) -> None:
        self.steps(dst.shape[1], rows.start, rows.step,
                   lambda r0, r1, out, _: np.copyto(dst[:, r0:r1], out[:, :, cols]))


@functools.lru_cache(maxsize=64)
def _resize_tables(h: int, w: int, out_h: int, out_w: int) -> tuple[np.ndarray, ...]:
    """Read-only index and weight tables of a resize from h x w to out_h x
    out_w: the first and second source row of each output row, its float32
    weight shaped (1, out_h, 1), and the same three per output column."""
    ys = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0, x0 = np.floor(ys).astype(np.int64), np.floor(xs).astype(np.int64)
    tables = (y0, np.minimum(y0 + 1, h - 1), (ys - y0).astype(np.float32)[None, :, None],
              x0, np.minimum(x0 + 1, w - 1), (xs - x0).astype(np.float32))
    for table in tables:
        table.flags.writeable = False
    return tables


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
    rs.read(out, slice(0, out_h, 1), slice(None))
    return out


def resize_argmax(x, out_h: int, out_w: int) -> np.ndarray:
    """np.argmax(bilinear_resize(x, out_h, out_w), axis=0), bit for bit, as
    int32 (out_h, out_w) labels. Each step of output rows is resized into
    one reused buffer and reduced to labels, so the resized array never
    exists whole."""
    rs = _ResizeRows(x, out_h, out_w)
    labels = np.zeros((out_h, out_w), dtype=np.int32)

    def reduce(r0: int, r1: int, rows: np.ndarray, scratch: np.ndarray) -> None:
        # `scratch` is free: its first channel holds the running maximum
        _argmax_into(rows.reshape(rs.shape[0], -1), labels[r0:r1].reshape(-1), scratch[0].reshape(-1))

    rs.steps(out_h, 0, 1, reduce)
    return labels


def _block_rows(c: int, out_w: int) -> int:
    """Output rows per step of a resize: at most _BLOCK_BYTES // 4 bytes
    across all channels, and at least one."""
    return max(1, _BLOCK_BYTES // 4 // (4 * c * out_w))


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
