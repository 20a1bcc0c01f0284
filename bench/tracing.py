"""In-memory span recorder around splitseg's layer functions.

The package calls its layer functions through module attributes
(`T.conv2d`, `phy.transmit`, `model.forward_full`, ...), so replacing a
module attribute with a timing closure puts a span around every call
without touching the package. `Tracer` installs the closures on entry and
restores the original attributes on exit.

A span is (name, start, end, parent, work, tag). `parent` is the index of
the enclosing span in the same process, or -1. `work` is the amount of work
the call did (MACs for conv2d, output elements for bilinear_resize, bits
for demodulate and transmit) and `tag` names the `ConvPlan` a conv2d call
ran, matched by kernel identity.

Pool workers forked while a tracer is installed inherit the closures. Each
worker keeps its own spans and writes them to the spool directory when it
exits; `Tracer.collect_workers` reads them back.
"""

from __future__ import annotations

import functools
import json
import os
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

# Layer boundaries, by module: every function listed is wrapped when present.
LAYERS = {
    "tensor_ops": ("conv2d", "affine_norm", "relu", "avg_pool_to", "adaptive_avg_pool",
                   "bilinear_resize", "add", "concat_channels"),
    "model": ("build", "forward_transmitter", "forward_receiver", "forward_full"),
    "codec": ("quantize_features", "dequantize_features", "serialize_payload",
              "deserialize_payload", "encode_labelmap", "decode_labelmap",
              "encode_image", "decode_image"),
    "phy": ("modulate", "apply_awgn", "demodulate", "transmit"),
    "metrics": ("confusion", "miou", "bits_per_image"),
    "dataio": ("generate_synthetic", "raster_to_tensor"),
    "experiments": ("run_traditional", "run_full_tx", "run_split", "_count_flips"),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    work: int
    tag: str


def _conv_work(args, kwargs, out):
    kernels = args[1] if len(args) > 1 else kwargs["kernels"]
    cout, cin, k, _ = kernels.shape
    return cout * cin * k * k * out.shape[1] * out.shape[2]


def _size_work(args, kwargs, out):
    return int(out.size)


def _bits_out_work(args, kwargs, out):
    return int(out.n_bits)


def _bits_in_work(args, kwargs, out):
    stream = args[0] if args else kwargs["stream"]
    return int(stream.n_bits)


WORK = {
    "tensor_ops.conv2d": _conv_work,
    "tensor_ops.bilinear_resize": _size_work,
    "phy.demodulate": _bits_out_work,
    "phy.transmit": _bits_in_work,
}


class Tracer:
    """Records spans for calls into the modules of a loaded splitseg package.

    Use as a context manager; it may be entered again after it exits, and
    keeps adding to the same span list.
    """

    def __init__(self, package, spool_dir):
        self._package = package
        self.spool_dir = Path(spool_dir)
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._originals: list[tuple[object, str, object]] = []
        self._plan_of_kernel: dict[int, str] = {}
        self._plan_module = package.model

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for mod_name, fn_names in LAYERS.items():
            module = getattr(self._package, mod_name)
            for fn_name in fn_names:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    continue
                self._originals.append((module, fn_name, fn))
                setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))
        return self

    def __exit__(self, *exc):
        for module, fn_name, fn in reversed(self._originals):
            setattr(module, fn_name, fn)
        self._originals.clear()
        return False

    def _wrap(self, name, fn):
        work = WORK.get(name)
        if name == "model.build":
            after = self._note_kernels
        elif name == "tensor_ops.conv2d":
            after = self._plan_tag
        else:
            after = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                self._become_worker()
            stack = self._stack
            parent = stack[-1] if stack else -1
            sid = len(self.spans)
            self.spans.append(None)
            stack.append(sid)
            start = perf_counter()
            out, returned = None, False
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[sid] = Span(
                    name, start, end, parent,
                    work(args, kwargs, out) if work and returned else 0,
                    after(args, kwargs, out) if after and returned else "",
                )

        return traced

    # -- conv plan matching -------------------------------------------------

    def _note_kernels(self, args, kwargs, weights):
        for plan in self._plan_module.layer_plan(weights.config):
            kernel = weights.params.get(plan.name + ".kernel")
            if kernel is not None:
                self._plan_of_kernel[id(kernel)] = plan.name
        return ""

    def _plan_tag(self, args, kwargs, out):
        kernels = args[1] if len(args) > 1 else kwargs["kernels"]
        return self._plan_of_kernel.get(id(kernels), "")

    # -- explicit spans and worker processes ---------------------------------

    def open_span(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0, ""))
        self._stack.append(sid)
        return sid

    def close_span(self, sid: int) -> None:
        self._stack.remove(sid)
        self.spans[sid] = self.spans[sid]._replace(end=perf_counter())

    def _become_worker(self):
        """First traced call in a forked child: start an empty span list."""
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        mp_util.Finalize(self, self._write_worker_spans, exitpriority=100)

    def _write_worker_spans(self):
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        rows = [list(s) for s in self.spans if s is not None]
        path = self.spool_dir / f"spans-{self._pid}.json"
        path.write_text(json.dumps(rows))

    def collect_workers(self) -> list[list[Span]]:
        """Read and delete the span files that exited workers wrote."""
        out = []
        if not self.spool_dir.is_dir():
            return out
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            out.append([Span(*row) for row in json.loads(path.read_text())])
            path.unlink()
        return out
