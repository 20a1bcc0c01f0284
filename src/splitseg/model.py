"""Miniature three-branch segmentation network and its split executor.

The network follows a fixed stage schedule (output scale relative to the
input): two stride-2 convs (1/4), a residual block (1/4), a stride-2
residual block (1/8), then three parallel branches through stages 3-5. The
detail branch stays at 1/8, the context branch downsamples per stage
(1/16, 1/32, 1/64) and feeds resized compensation features back into the
detail branch, and a third branch refines at 1/8 with fewer channels.
Stage 5 uses bottleneck blocks, after which the branches are fused into a
single 1/64-scale feature map: that map is the transmitted object.

The receiver half applies pyramid pooling over the fused map, upsamples to
1/8 scale, and runs the two-conv classification head.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import tensor_ops as T
from .atomic import write_bytes_atomic, write_text_atomic


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# One type rule, one list rule and one seed rule for every config value:
# ModelConfig, experiments.ExperimentSpec and phy.ChannelConfig apply them to
# their fields, and each ConfigError names the JSON key.

# The values each type accepts: a float takes an integer too and numpy scalars
# pass, but no bool (an int) does, and none is truncated or parsed from a string.
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str}


def as_scalar(key: str, value, kind):
    """`value` as a plain `kind` (int, float or str)."""
    try:
        if not isinstance(value, bool) and isinstance(value, _ACCEPTS[kind]):
            return kind(value)
    except OverflowError:  # float(10**400)
        pass
    raise ConfigError(f"{key!r} must be {kind.__name__}, got {value!r}")


def as_list(key: str, value) -> tuple:
    """Any iterable but a string or a mapping, as a nonempty tuple."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ConfigError(f"{key!r} must be a list, got {type(value).__name__}")
    items = tuple(value)
    if not items:
        raise ConfigError(f"{key} must be nonempty")
    return items


def as_seed(key: str, value) -> int:
    """An integer that np.random.SeedSequence takes: in [0, 2**64)."""
    seed = as_scalar(key, value, int)
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{key} must be a 64-bit unsigned integer, got {seed}")
    return seed


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    input dims must be divisible by 64 (the fused feature map lives at 1/64
    scale). `feature_channels` is the channel count of the transmitted map.
    """

    input_height: int = 256
    input_width: int = 256
    base_channels: int = 16
    feature_channels: int = 64
    num_classes: int = 8
    ppm_bins: tuple[int, ...] = (1, 2, 3, 4)
    seed: int = 1234

    def __post_init__(self):
        # only real integers: a float, bool or string would be truncated,
        # taken as 0/1, or fail far from here in the executor
        for f in fields(self):
            if f.name not in ("ppm_bins", "seed"):
                object.__setattr__(self, f.name, as_scalar(f.name, getattr(self, f.name), int))
        bins = as_list("ppm_bins", self.ppm_bins)
        object.__setattr__(self, "ppm_bins", tuple(as_scalar("ppm_bins", b, int) for b in bins))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        if self.input_height % 64 or self.input_width % 64:
            raise ConfigError(
                f"input dims must be divisible by 64, got {self.input_height}x{self.input_width}"
            )
        if self.input_height < 64 or self.input_width < 64:
            raise ConfigError("input dims must be at least 64")
        if self.base_channels < 4:
            raise ConfigError(f"base_channels must be >= 4, got {self.base_channels}")
        if self.feature_channels < 4:
            raise ConfigError(f"feature_channels must be >= 4, got {self.feature_channels}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if any(b < 1 for b in self.ppm_bins):
            raise ConfigError(f"ppm_bins must be positive, got {self.ppm_bins}")
        if any(a >= b for a, b in zip(self.ppm_bins, self.ppm_bins[1:])):
            raise ConfigError(f"ppm_bins must be strictly increasing, got {self.ppm_bins}")
        if max(self.ppm_bins) > min(self.input_height, self.input_width) // 64:
            raise ConfigError(
                f"max ppm bin {max(self.ppm_bins)} exceeds fused map size "
                f"{min(self.input_height, self.input_width) // 64}"
            )

    @classmethod
    def full_scale(cls, **overrides) -> "ModelConfig":
        """1024x1024 config matching the reference stage resolutions."""
        defaults = dict(
            input_height=1024, input_width=1024, base_channels=32,
            feature_channels=512, num_classes=19, ppm_bins=(1, 2, 3, 6), seed=1234,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def to_dict(self) -> dict:
        return {**asdict(self), "ppm_bins": list(self.ppm_bins)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class SegmentationMap:
    """Per-pixel class indices, stored as a (height, width) int32 array."""

    labels: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.labels, dtype=np.int32)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"labels must be a 2-D array, got shape {a.shape}")
        self.labels = a

    @property
    def height(self) -> int:
        return int(self.labels.shape[0])

    @property
    def width(self) -> int:
        return int(self.labels.shape[1])

    def same_as(self, other: "SegmentationMap") -> bool:
        return bool(np.array_equal(self.labels, other.labels))


@dataclass(frozen=True)
class ConvPlan:
    """One convolution unit in the execution plan: the conv, then the affine
    map if `affine`, then ReLU if `relu`."""

    name: str
    stage: int
    k: int
    cin: int
    cout: int
    stride: int
    out_h: int
    out_w: int
    affine: bool = True
    relu: bool = True

    @property
    def macs(self) -> int:
        return self.k * self.k * self.cin * self.cout * self.out_h * self.out_w


def layer_plan(config: ModelConfig) -> list[ConvPlan]:
    """Enumerate every convolution in execution order.

    This single table drives weight construction, the weight-file layout,
    MAC accounting, `describe`, and the executor's units, strides, padding,
    affine layers, ReLUs and residual projections. A residual block's last
    unit and its projection end without ReLU, as in PIDNet's blocks: the
    block applies one after adding them. So do `comp`, whose output is added
    onto the detail branch, the fused map `s5.fuse` and the logits `s6.head2`.
    """
    c0, c5, k = config.base_channels, config.feature_channels, config.num_classes
    h, w = config.input_height, config.input_width
    h4, w4 = h // 4, w // 4
    h8, w8 = h // 8, w // 8
    h16, w16 = h // 16, w // 16
    h32, w32 = h // 32, w // 32
    h64, w64 = h // 64, w // 64

    plans: list[ConvPlan] = []

    def conv(*args, **flags):
        plans.append(ConvPlan(*args, **flags))

    def rb(prefix, stage, cin, cout, stride, oh, ow):
        conv(f"{prefix}.conv1", stage, 3, cin, cout, stride, oh, ow)
        conv(f"{prefix}.conv2", stage, 3, cout, cout, 1, oh, ow, relu=False)
        if stride != 1 or cin != cout:
            conv(f"{prefix}.proj", stage, 1, cin, cout, stride, oh, ow, relu=False)

    def rbb(prefix, stage, cin, cout, stride, ih, iw, oh, ow):
        mid = max(cout // 4, 4)
        conv(f"{prefix}.reduce", stage, 1, cin, mid, 1, ih, iw)
        conv(f"{prefix}.conv", stage, 3, mid, mid, stride, oh, ow)
        conv(f"{prefix}.expand", stage, 1, mid, cout, 1, oh, ow, relu=False)
        if stride != 1 or cin != cout:
            conv(f"{prefix}.proj", stage, 1, cin, cout, stride, oh, ow, relu=False)

    conv("s0.conv1", 0, 3, 3, c0, 2, h // 2, w // 2)
    conv("s0.conv2", 0, 3, c0, c0, 2, h4, w4)
    rb("s1.rb", 1, c0, c0, 1, h4, w4)
    rb("s2.rb", 2, c0, 2 * c0, 2, h8, w8)

    rb("s3.p", 3, 2 * c0, 2 * c0, 1, h8, w8)
    rb("s3.i", 3, 2 * c0, 4 * c0, 2, h16, w16)
    rb("s3.d", 3, 2 * c0, c0, 1, h8, w8)
    conv("s3.comp", 3, 1, 4 * c0, 2 * c0, 1, h16, w16, relu=False)

    rb("s4.p", 4, 2 * c0, 2 * c0, 1, h8, w8)
    rb("s4.i", 4, 4 * c0, 8 * c0, 2, h32, w32)
    rb("s4.d", 4, c0, c0, 1, h8, w8)
    conv("s4.comp", 4, 1, 8 * c0, 2 * c0, 1, h32, w32, relu=False)

    rbb("s5.p", 5, 2 * c0, 2 * c0, 1, h8, w8, h8, w8)
    rbb("s5.i", 5, 8 * c0, 8 * c0, 2, h32, w32, h64, w64)
    rbb("s5.d", 5, c0, c0, 1, h8, w8, h8, w8)
    conv("s5.fuse", 5, 1, 11 * c0, c5, 1, h64, w64, relu=False)

    cb = max(c5 // len(config.ppm_bins), 1)
    for b in config.ppm_bins:
        conv(f"s6.ppm.bin{b}", 6, 1, c5, cb, 1, b, b)
    conv("s6.ppm.fuse", 6, 1, c5 + cb * len(config.ppm_bins), c5, 1, h64, w64)
    mid = max(c5 // 4, k)
    conv("s6.head1", 6, 3, c5, mid, 1, h8, w8)
    conv("s6.head2", 6, 1, mid, k, 1, h8, w8, affine=False, relu=False)
    return plans


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in plan order: per conv its kernel
    (cout, cin, k, k) and bias (cout,), then scale and shift (cout,) if affine."""
    shapes: dict[str, tuple[int, ...]] = {}
    for p in layer_plan(config):
        shapes[p.name + ".kernel"] = (p.cout, p.cin, p.k, p.k)
        for suffix in ("bias", "scale", "shift") if p.affine else ("bias",):
            shapes[f"{p.name}.{suffix}"] = (p.cout,)
    return shapes


@dataclass(frozen=True)
class WeightSet:
    """All layer parameters, keyed "<layer>.<kernel|bias|scale|shift>". The
    mapping is read-only, so no entry is swapped under `units`; the arrays
    are not, and an in-place edit reaches the next pass."""

    config: ModelConfig
    params: Mapping[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @functools.cached_property
    def units(self) -> dict[str, tuple]:
        """Per plan entry, as the executor runs it: its conv2d arguments after
        the input (kernels, bias, stride, padding), its affine map's (scale,
        shift) or None, and whether it ends in ReLU."""
        p = self.params
        return {u.name: ((p[u.name + ".kernel"], p[u.name + ".bias"], u.stride, u.k // 2),
                         (p[u.name + ".scale"], p[u.name + ".shift"]) if u.affine else None, u.relu)
                for u in layer_plan(self.config)}

    def same_as(self, other: "WeightSet") -> bool:
        if self.config != other.config or self.params.keys() != other.params.keys():
            return False
        return all(np.array_equal(self.params[k], other.params[k]) for k in self.params)


def build(config: ModelConfig) -> WeightSet:
    """Deterministically initialize weights from config.seed.

    Kernels are drawn uniform in [-a, a] with a = sqrt(6 / (fan_in + fan_out));
    biases and affine shifts start at 0, affine scales at 1.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".kernel"):
            cout, cin, k, _ = shape
            a = math.sqrt(6.0 / ((cin + cout) * k * k))  # fan_in + fan_out
            params[name] = rng.uniform(-a, a, size=shape).astype(np.float32)
        else:
            params[name] = (np.ones if name.endswith(".scale") else np.zeros)(shape, dtype=np.float32)
    return WeightSet(config=config, params=params)


@functools.lru_cache(maxsize=32)
def _plans(config: ModelConfig) -> dict[str, ConvPlan]:
    return {p.name: p for p in layer_plan(config)}


def _epilogue(weights: WeightSet, name: str, out: np.ndarray) -> np.ndarray:
    """Unit `name`'s affine map and ReLU where its plan entry has them, in
    place on `out`: the unit's fresh conv output, or rows of it."""
    _, affine, relu = weights.units[name]
    if affine:
        T.affine_norm(out, *affine, out=out)
    if relu:
        T.relu(out, out=out)
    return out


def _unit(weights: WeightSet, name: str, x) -> np.ndarray:
    # the conv output is fresh and ours: the epilogue runs on it in place
    return _epilogue(weights, name, T.conv2d(x, *weights.units[name][0]))


def _unit_rows(weights: WeightSet, name: str, x) -> T._ConvRows:
    """_unit(weights, name, x) as rows that the next conv makes as it reads
    them: the unit's conv runs in row chunks, and _epilogue on each chunk
    (see T._ConvRows)."""
    conv = T._Conv(x, *weights.units[name][0])
    return T._ConvRows(conv, functools.partial(_epilogue, weights, name))


def _streams(weights: WeightSet, name: str) -> bool:
    """Whether conv `name` runs in row chunks, and so may read its input as
    rows made on demand. conv2d reads such rows only in that regime."""
    p = _plans(weights.config)[name]
    return T._row_chunks(p.k, p.cin, p.cout, p.stride, p.out_h, p.out_w, T._BLOCK_BYTES) > 1


def _block(weights: WeightSet, prefix: str, x) -> np.ndarray:
    """Residual block: the plan's units under `prefix` in plan order, plus
    the input (through the block's projection conv when the plan has one),
    then ReLU."""
    units, proj = weights.units, prefix + ".proj"
    y = x
    for name in units:
        if name.startswith(prefix + ".") and name != proj:
            y = _unit(weights, name, y)
    skip = _unit(weights, proj, x) if proj in units else x
    return T.relu(T.add(y, skip, out=y), out=y)  # y is the fresh output of a unit


def _branches(weights: WeightSet, s: int, pid) -> tuple:
    """Stages 3-4: a residual block per branch, then the context branch's
    compensation features resized and added onto the detail branch."""
    p, i, d = (_block(weights, f"s{s}.{b}", t) for b, t in zip("pid", pid))
    comp = _unit(weights, f"s{s}.comp", i)
    return T.add(p, T.bilinear_resize(comp, p.shape[1], p.shape[2]), out=p), i, d


def _fuse(weights: WeightSet, pid) -> np.ndarray:
    """Stage 5: a bottleneck block per branch, then all three on the context
    branch's 1/64 grid fused into one map."""
    p, i, d = (_block(weights, f"s5.{b}", t) for b, t in zip("pid", pid))
    pooled = [T.avg_pool_to(t, i.shape[1], i.shape[2]) for t in (p, d)]
    return _unit(weights, "s5.fuse", T.concat_channels([*pooled, i]))


def _stem(weights: WeightSet, x) -> np.ndarray:
    """Stage 0: two stride-2 convs. Where s0.conv2 runs in row chunks, it
    reads s0.conv1's output as rows made in s0.conv1's own row chunks, so
    that output never exists whole."""
    conv1 = _unit_rows if _streams(weights, "s0.conv2") else _unit
    return _unit(weights, "s0.conv2", conv1(weights, "s0.conv1", x))


def _head(weights: WeightSet, x) -> np.ndarray:
    """Stage 6: pyramid pooling over the fused map, then the two-conv head at
    1/8 scale. Where s6.head1 runs in row chunks, it reads its resized input
    as rows resized on demand, so that input never exists whole."""
    cfg = weights.config
    branches = [x]
    for b in cfg.ppm_bins:
        ppm = _unit(weights, f"s6.ppm.bin{b}", T.avg_pool_to(x, b, b))
        branches.append(T.bilinear_resize(ppm, x.shape[1], x.shape[2]))
    y = _unit(weights, "s6.ppm.fuse", T.concat_channels(branches))
    head1 = _plans(cfg)["s6.head1"]
    resize = T._ResizeRows if _streams(weights, "s6.head1") else T.bilinear_resize
    y = _unit(weights, "s6.head1", resize(y, head1.out_h, head1.out_w))
    return _unit(weights, "s6.head2", y)


# The stage schedule. Per stage: its function (weights, input) -> output and
# the plan entry of its output. Stage 3 feeds x to all of (p, i, d).
_STAGES = (
    (_stem, "s0.conv2"),
    (lambda w, x: _block(w, "s1.rb", x), "s1.rb.conv2"),
    (lambda w, x: _block(w, "s2.rb", x), "s2.rb.conv2"),
    (lambda w, x: _branches(w, 3, (x, x, x)), "s3.i.conv2"),
    (lambda w, pid: _branches(w, 4, pid), "s4.i.conv2"),
    (_fuse, "s5.fuse"),
    (_head, "s6.head2"),
)
TOTAL_STAGES = len(_STAGES)
# The transmitter runs stages 0..SPLIT_BOUNDARY and sends that stage's output.
SPLIT_BOUNDARY = 5
# The stages whose output is one tensor: stages 3-4 output the (p, i, d) branches.
_ONE_TENSOR_STAGES = (0, 1, 2, 5, 6)


def describe(config: ModelConfig) -> list[ConvPlan]:
    """Per stage, the plan entry of its output (for stages 3-4, the context
    branch's): its channels `cout` and resolution `out_h` x `out_w`."""
    plans = _plans(config)
    return [plans[name] for _, name in _STAGES]


def split_cut(config: ModelConfig) -> ConvPlan:
    """The plan entry of the tensor sent at SPLIT_BOUNDARY. A boundary whose
    stage does not output one tensor raises ValueError."""
    if SPLIT_BOUNDARY not in _ONE_TENSOR_STAGES:
        raise ValueError(f"SPLIT_BOUNDARY {SPLIT_BOUNDARY} does not cut after a single-tensor stage; "
                         f"the boundaries that do are {', '.join(map(str, _ONE_TENSOR_STAGES))}")
    return describe(config)[SPLIT_BOUNDARY]


def _forward(x, weights: WeightSet, start: int, stop: int):
    """Run stages start..stop-1 on the input of stage `start`."""
    for run, _ in _STAGES[start:stop]:
        x = run(weights, x)
    return x


def forward_transmitter(image, weights: WeightSet) -> np.ndarray:
    """Run stages 0..SPLIT_BOUNDARY; returns the tensor to send."""
    cfg = weights.config
    x = np.asarray(image, dtype=np.float32)
    if x.shape != (3, cfg.input_height, cfg.input_width):
        raise ValueError(f"image shape {x.shape} != (3, {cfg.input_height}, {cfg.input_width})")
    split_cut(cfg)  # a boundary with no one tensor to send raises here
    return _forward(x, weights, 0, SPLIT_BOUNDARY + 1)


def forward_receiver(features, weights: WeightSet) -> tuple[np.ndarray, SegmentationMap]:
    """Run the stages after SPLIT_BOUNDARY; returns the head's 1/8-scale
    logits and the labels of their bilinear resize to the input size (argmax
    ties go to the lowest class). The full-resolution logits are never built."""
    cfg = weights.config
    cut = split_cut(cfg)
    x = np.asarray(features, dtype=np.float32)
    if x.shape != (cut.cout, cut.out_h, cut.out_w):
        raise ValueError(f"feature shape {x.shape} != ({cut.cout}, {cut.out_h}, {cut.out_w})")
    y = _forward(x, weights, SPLIT_BOUNDARY + 1, TOTAL_STAGES)
    return y, SegmentationMap(T.resize_argmax(y, cfg.input_height, cfg.input_width))


def forward_full(image, weights: WeightSet) -> tuple[np.ndarray, SegmentationMap]:
    """Transmitter and receiver halves composed back-to-back."""
    return forward_receiver(forward_transmitter(image, weights), weights)


def mac_count(config: ModelConfig, boundary: int) -> tuple[int, int]:
    """Convolution MACs on each side of a stage boundary.

    The transmitter side covers all convolutions in stages <= boundary (the
    branch-fusion conv belongs to stage 5); the receiver side covers the
    rest, so boundary -1 puts every convolution at the receiver. Only
    convolutions are counted.
    """
    if not (-1 <= boundary <= TOTAL_STAGES - 1):
        raise ValueError(f"boundary must be in -1..{TOTAL_STAGES - 1}, got {boundary}")
    tx = rx = 0
    for p in _plans(config).values():
        if p.stage <= boundary:
            tx += p.macs
        else:
            rx += p.macs
    return tx, rx


def _manifest_path(path) -> Path:
    return Path(str(path) + ".json")


def _blob_path(path) -> Path:
    return Path(str(path) + ".bin")


def _layout(config: ModelConfig) -> tuple[dict[str, tuple[tuple[int, ...], int]], int]:
    """Each parameter's shape and byte offset in the weight blob, packed back
    to back as float32 in param_shapes order, and the blob's total bytes."""
    layout, offset = {}, 0
    for name, shape in param_shapes(config).items():
        layout[name] = (shape, offset)
        offset += 4 * math.prod(shape)
    return layout, offset


def save_weights(weights: WeightSet, path) -> None:
    """Write `<path>.json` (manifest) and `<path>.bin` (little-endian float32 blob).

    The manifest lists {name, shape, offset} per parameter as `_layout`
    places it and embeds the model config so the file is self-describing.
    """
    if {name: np.shape(arr) for name, arr in weights.params.items()} != param_shapes(weights.config):
        raise ValueError("weights do not match param_shapes of their config")
    layout, total = _layout(weights.config)
    blob = b"".join(np.ascontiguousarray(weights.params[name], dtype="<f4").tobytes() for name in layout)
    manifest = {
        "config": weights.config.to_dict(),
        "params": [{"name": n, "shape": list(shape), "offset": o} for n, (shape, o) in layout.items()],
        "total_bytes": total,
    }
    # blob first: if the manifest write fails, the old manifest stays and
    # load_weights rejects the new blob unless its layout is the same
    write_bytes_atomic(_blob_path(path), blob)
    write_text_atomic(_manifest_path(path), json.dumps(manifest, indent=1) + "\n")


def load_weights(path) -> WeightSet:
    """Load and validate a weight file pair written by save_weights.

    Raises ValueError with a "missing entry", "shape mismatch", "unexpected
    entry", or "corrupt file" message depending on the defect found. Every
    entry must sit at the offset `_layout` gives it.
    """
    mpath, bpath = _manifest_path(path), _blob_path(path)
    if not mpath.exists():
        raise FileNotFoundError(str(mpath))
    if not bpath.exists():
        raise FileNotFoundError(str(bpath))
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
        config = ModelConfig.from_dict(manifest["config"])
        entries = {e["name"]: (tuple(e["shape"]), e["offset"]) for e in manifest["params"]}
        total = manifest["total_bytes"]
    # ValueError includes text that is not UTF-8; RecursionError, JSON nested
    # deeper than the decoder's recursion limit
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"corrupt file: unreadable manifest {mpath} ({exc})") from exc
    if len(entries) != len(manifest["params"]):
        raise ValueError(f"corrupt file: manifest {mpath} lists an entry twice")

    layout, size = _layout(config)
    for name in entries:
        if name not in layout:
            raise ValueError(f"unexpected entry: {name}")
    for name, (shape, offset) in layout.items():
        if name not in entries:
            raise ValueError(f"missing entry: {name}")
        listed_shape, listed_offset = entries[name]
        if listed_shape != shape:
            raise ValueError(f"shape mismatch for {name}: manifest {list(listed_shape)}, expected {list(shape)}")
        if listed_offset != offset:
            raise ValueError(f"corrupt file: entry {name} at byte {listed_offset}, expected {offset}")
    blob = bpath.read_bytes()
    if not len(blob) == total == size:
        raise ValueError(f"corrupt file: blob {bpath} has {len(blob)} bytes, manifest says {total}, layout {size}")

    values = np.frombuffer(blob, dtype="<f4")
    params: dict[str, np.ndarray] = {}
    for name, (shape, offset) in layout.items():
        arr = values[offset // 4 : offset // 4 + math.prod(shape)]
        if not np.isfinite(arr).all():
            raise ValueError(f"corrupt file: non-finite values in {name}")
        params[name] = arr.reshape(shape).astype(np.float32)
    return WeightSet(config=config, params=params)
