"""End-to-end experiment pipelines, the SNR sweep harness, and CSV i/o.

Three pipelines share one trained-once weight set per spec:

  traditional: raw RGB over the channel, full inference at the receiver.
  full_tx:     full inference at the transmitter, packed labels over the channel.
  split:       transmitter half, quantized features over the channel (range
               header error-free), receiver half completes inference.

Each pipeline is a send half and a receive half on its `metrics.PIPELINE_TABLE`
row, and `run` drives all three: send, `phy.transmit`, count flips, receive.
A stream that arrives without a flip is the stream sent, so the receive half
is skipped when the send half already holds its result: full_tx holds the map
it sent, and traditional the image's clean label map when the caller passes
it (the sweep does in `noiseless_output` mode, where that map is the
reference). Split holds none and always runs its receiver.

Every trial derives its own noise substream from (master seed, modulation
index, SNR index, image index, pipeline index), so sweep output is a pure
function of the spec regardless of worker count or scheduling. The pipeline
index is the pipeline's row in `metrics.PIPELINE_TABLE`.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import atomic, codec, dataio, metrics, model, phy, tensor_ops
from .model import ConfigError, ModelConfig, SegmentationMap, WeightSet, as_list, as_scalar, as_seed
from .phy import ChannelConfig

ARTIFACT_VERSION = "0.1.0"
SNR_AXIS = "es_n0_db"

COLUMNS = ("miou_f", "miou_n", "miou_s")  # sweep CSV column order
COLUMN_PIPELINE = {p.column: p.name for p in metrics.PIPELINE_TABLE}
CSV_HEADER = ",".join(("snr",) + COLUMNS)
REFERENCE_MODES = ("ground_truth", "noiseless_output")


# Scalar JSON keys -> (ExperimentSpec field, type). The spec checks each
# field against its type and names the JSON key in the message.
_SPEC_SCALARS = {
    "num_images": ("num_images", int), "master_seed": ("master_seed", int),
    "dataset": ("dataset", str), "reference_mode": ("reference_mode", str),
    "quant_bits": ("quant_bits", int), "fps": ("frames_per_second", float),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a sweep needs; see load_spec for the JSON form."""

    model: ModelConfig
    modulations: tuple[str, ...] = (phy.QPSK, phy.QAM16)
    snr_db: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    pipelines: tuple[str, ...] = metrics.PIPELINES
    num_images: int = 50
    master_seed: int = 20240917
    dataset: str = "synthetic"
    reference_mode: str = "noiseless_output"
    quant_bits: int = 8
    frames_per_second: float = 1.0

    def __post_init__(self):
        for key, (name, kind) in _SPEC_SCALARS.items():
            object.__setattr__(self, name, as_scalar(key, getattr(self, name), kind))
        as_seed("master_seed", self.master_seed)
        object.__setattr__(self, "modulations", as_list("modulations", self.modulations))
        snrs = tuple(as_scalar("snr_db", s, float) for s in as_list("snr_db", self.snr_db))
        object.__setattr__(self, "snr_db", snrs)
        object.__setattr__(self, "pipelines", as_list("pipelines", self.pipelines))
        try:  # the link's own modulation and SNR checks, and the pipeline table's
            for m in self.modulations:
                for s in self.snr_db:
                    ChannelConfig(m, s)
            for p in self.pipelines:
                metrics.pipeline_index(p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        _reject_duplicates("modulations", self.modulations)
        if any(a >= b for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError(f"snr_db must be strictly increasing, got {self.snr_db}")
        _reject_duplicates("pipelines", self.pipelines)
        if self.num_images < 1:
            raise ConfigError(f"num_images must be >= 1, got {self.num_images}")
        if self.reference_mode not in REFERENCE_MODES:
            raise ConfigError(f"reference_mode {self.reference_mode!r} not in {REFERENCE_MODES}")
        if self.quant_bits not in codec.STANDARD_QUANT_BITS:
            raise ConfigError(f"quant_bits {self.quant_bits} not in {codec.STANDARD_QUANT_BITS}")
        if not (0 < self.frames_per_second < math.inf):
            raise ConfigError(f"frames_per_second must be positive and finite, got {self.frames_per_second}")

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "channel": {"modulations": list(self.modulations), "snr_db": list(self.snr_db)},
            "pipelines": list(self.pipelines),
            **{key: getattr(self, name) for key, (name, _) in _SPEC_SCALARS.items()},
        }


def _reject_duplicates(key: str, values: tuple) -> None:
    # a repeated modulation would overwrite its own sweep CSV; a repeated
    # pipeline would run twice per trial
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{key} must not repeat entries, got {repeated} more than once")


_SPEC_KEYS = {"model", "channel", "pipelines", *_SPEC_SCALARS}
_MODEL_KEYS = {"input_size", *(f.name for f in fields(ModelConfig))}


def _section(raw: dict, key: str, allowed) -> dict:
    section = raw[key]
    if not isinstance(section, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {type(section).__name__}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
    return section


def spec_from_dict(raw: dict) -> ExperimentSpec:
    """Build a spec from its JSON form; absent keys take the dataclass
    defaults, except that master_seed defaults to the model seed."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "model" not in raw or "channel" not in raw:
        raise ConfigError("config requires 'model' and 'channel' sections")

    m = dict(_section(raw, "model", _MODEL_KEYS))
    kw = dict(_section(raw, "channel", ("modulations", "snr_db")))
    if "input_size" in m:  # not a field: expanded to the height and width
        size = as_scalar("input_size", m.pop("input_size"), int)
        also = [k for k in ("input_height", "input_width") if k in m]
        if also:
            keys = ", ".join(repr(k) for k in ["input_size", *also])
            raise ConfigError(f"model keys {keys} conflict: give 'input_size' or the height and width, not both")
        m = {"input_height": size, "input_width": size, **m}
    if "pipelines" in raw:
        kw["pipelines"] = raw["pipelines"]
    kw.update({name: raw[key] for key, (name, _) in _SPEC_SCALARS.items() if key in raw})
    try:
        mc = ModelConfig(**m)
        return ExperimentSpec(model=mc, **{"master_seed": mc.seed, **kw})
    except (TypeError, ValueError) as exc:  # ConfigError included, message kept
        raise ConfigError(str(exc)) from exc


def load_spec(path) -> ExperimentSpec:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(str(p))
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    # RecursionError: JSON nested deeper than the decoder's recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{p}: not valid JSON ({exc})") from exc
    return spec_from_dict(raw)


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 64-bit substream seed for a (namespace, index...) tuple."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def trial_seed(master_seed: int, mod_idx: int, snr_idx: int, image_idx: int, pipeline: str) -> int:
    return derive_seed(master_seed, 1, mod_idx, snr_idx, image_idx, metrics.pipeline_index(pipeline))


@dataclass
class PipelineResult:
    """Output of one pipeline run on one image over one channel."""

    label_map: SegmentationMap
    bits_sent: int
    bit_flips: int
    channel_bits: int


# Set bits in each byte value, for counting flips without unpacking.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _count_flips(sent: codec.BitStream, received: codec.BitStream) -> int:
    """Bits that differ; exact because both streams have the same length and
    BitStream zeroes their pad bits."""
    return int(_POPCOUNT[np.bitwise_xor(sent.data, received.data)].sum(dtype=np.int64))


def run(pipeline: str, raster, weights: WeightSet, channel: ChannelConfig,
        quant_bits: int = 8, clean: SegmentationMap | None = None) -> PipelineResult:
    """One image through one pipeline: its send half, the channel, then its
    receive half, which is skipped when the stream arrives without a flip
    and the send half already holds the result.

    `clean` is the raster's own label map, `forward_full` of the raster,
    when the caller has it; traditional holds it as its result. `bits_sent`
    adds the side stream (split's range header, which crosses error-free) to
    `channel_bits`, the bits exposed to noise.
    """
    row = metrics.PIPELINE_TABLE[metrics.pipeline_index(pipeline)]
    sent, side, seg = row.send(raster, weights, quant_bits, clean)
    received = phy.transmit(sent, channel)
    flips = _count_flips(sent, received)
    if flips or seg is None:
        seg = row.receive(received, side, weights)
    side_bits = 0 if side is None else side.n_bits
    return PipelineResult(seg, sent.n_bits + side_bits, flips, sent.n_bits)


def run_traditional(raster, weights, channel, quant_bits=8, clean=None) -> PipelineResult:
    """Raw 24 bpp image over the channel; all inference at the receiver."""
    return run("traditional", raster, weights, channel, quant_bits, clean)


def run_full_tx(raster, weights, channel, quant_bits=8, clean=None) -> PipelineResult:
    """Full inference at the transmitter; packed label map over the channel."""
    return run("full_tx", raster, weights, channel, quant_bits, clean)


def run_split(raster, weights, channel, quant_bits=8, clean=None) -> PipelineResult:
    """Split inference: the quantized split-boundary tensor over the channel."""
    return run("split", raster, weights, channel, quant_bits, clean)


@dataclass
class _SweepContext:
    spec: ExperimentSpec
    weights: WeightSet
    dataset: list
    references: list


def _build_context(spec: ExperimentSpec) -> _SweepContext:
    cfg = spec.model
    if spec.dataset == "synthetic":
        dataset = dataio.generate_synthetic(
            spec.num_images, cfg.num_classes, cfg.input_height, cfg.input_width,
            derive_seed(spec.master_seed, 0),
        )
    else:
        dataset = dataio.load_dataset_dir(spec.dataset)
        problems = []
        for i, (raster, seg) in enumerate(dataset):
            if raster.shape[:2] != (cfg.input_height, cfg.input_width):
                problems.append(f"image {i}: dims {raster.shape[:2]} != config "
                                f"({cfg.input_height}, {cfg.input_width})")
            elif seg.labels.max() >= cfg.num_classes:
                problems.append(f"image {i}: label {int(seg.labels.max())} >= K={cfg.num_classes}")
        if problems:
            raise ValueError("dataset does not match config:\n  " + "\n  ".join(problems))
        if len(dataset) < spec.num_images:
            raise ValueError(f"dataset has {len(dataset)} images, spec wants {spec.num_images}")
        dataset = dataset[: spec.num_images]

    weights = model.build(cfg)
    if spec.reference_mode == "noiseless_output":
        references = [model.forward_full(dataio.raster_to_tensor(r), weights)[1] for r, _ in dataset]
    else:
        references = [gt for _, gt in dataset]
    return _SweepContext(spec, weights, dataset, references)


def _run_trial(ctx: _SweepContext, mod_idx: int, snr_idx: int, image_idx: int) -> dict:
    spec = ctx.spec
    raster, _ = ctx.dataset[image_idx]
    reference = ctx.references[image_idx]
    # in noiseless_output mode the reference is the raster's clean label map
    clean = reference if spec.reference_mode == "noiseless_output" else None
    out = {}
    for pipeline in spec.pipelines:
        channel = ChannelConfig(
            spec.modulations[mod_idx], spec.snr_db[snr_idx],
            trial_seed(spec.master_seed, mod_idx, snr_idx, image_idx, pipeline),
        )
        # looked up as a module attribute, not a direct call of `run`: the
        # benchmark's tracer, its self-tests and TestFlipFreeReceive replace
        # run_<pipeline> on the module to count trials by pipeline
        res = globals()[f"run_{pipeline}"](raster, ctx.weights, channel, spec.quant_bits, clean)
        _, mean_iou = metrics.miou(metrics.confusion(reference, res.label_map, spec.model.num_classes))
        out[pipeline] = (mean_iou, res.bit_flips, res.channel_bits, res.bits_sent)
    return out


_WORKER_CTX: _SweepContext | None = None


def _init_worker(spec: ExperimentSpec) -> None:
    global _WORKER_CTX
    # changes no bit: the pool already runs one worker per core, and more threads would oversubscribe them
    tensor_ops.threads = 1
    _WORKER_CTX = _build_context(spec)


def _worker_trial(key: tuple[int, int, int]):
    return key, _run_trial(_WORKER_CTX, *key)


@dataclass
class SweepResult:
    """Per-SNR aggregated sweep output for one modulation."""

    modulation: str
    snr_db: list[float]
    miou_median: dict[str, list[float]]
    miou_mean: dict[str, list[float]] = field(default_factory=dict)
    ber: list[float] = field(default_factory=list)
    bits_per_image: dict[str, float] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> list[float]:
        """Median mIoU series for a CSV column name (one of COLUMNS)."""
        pipeline = COLUMN_PIPELINE[name]
        return self.miou_median.get(pipeline, [float("nan")] * len(self.snr_db))


def sweep(spec: ExperimentSpec, workers: int = 1) -> list[SweepResult]:
    """Run every (modulation, snr, image) trial and aggregate per SNR row.

    Deterministic for a fixed spec at any worker count.
    """
    keys = [
        (m, s, i)
        for m in range(len(spec.modulations))
        for s in range(len(spec.snr_db))
        for i in range(spec.num_images)
    ]
    if workers <= 1:
        ctx = _build_context(spec)
        outcomes = {k: _run_trial(ctx, *k) for k in keys}
    else:
        chunk = max(len(keys) // (workers * 8), 1)
        with ProcessPoolExecutor(
            max_workers=min(workers, len(keys)), initializer=_init_worker, initargs=(spec,)
        ) as pool:
            outcomes = dict(pool.map(_worker_trial, keys, chunksize=chunk))

    expected_bits = {
        p: float(metrics.bits_per_image(p, spec.model, spec.quant_bits)) for p in spec.pipelines
    }
    for out in outcomes.values():
        for p, (_, _, _, sent) in out.items():
            if sent != expected_bits[p]:
                raise RuntimeError(
                    f"bit accounting mismatch for {p}: trial sent {sent}, formula {expected_bits[p]}"
                )

    results = []
    for m, modulation in enumerate(spec.modulations):
        medians = {p: [] for p in spec.pipelines}
        means = {p: [] for p in spec.pipelines}
        bers = []
        for s in range(len(spec.snr_db)):
            rows = [outcomes[(m, s, i)] for i in range(spec.num_images)]
            for p in spec.pipelines:
                vals = [row[p][0] for row in rows]
                medians[p].append(float(np.median(vals)))
                means[p].append(float(np.mean(vals)))
            flips = sum(row[p][1] for row in rows for p in spec.pipelines)
            bits = sum(row[p][2] for row in rows for p in spec.pipelines)
            bers.append(flips / bits if bits else float("nan"))
        results.append(
            SweepResult(
                modulation=modulation,
                snr_db=list(spec.snr_db),
                miou_median=medians,
                miou_mean=means,
                ber=bers,
                bits_per_image=dict(expected_bits),
                metadata={
                    "modulation": modulation,
                    "spec": spec.to_dict(),
                    "version": ARTIFACT_VERSION,
                    "snr_axis": SNR_AXIS,
                },
            )
        )
    return results


def _fmt(v: float) -> str:
    return repr(float(v))


def write_csv(result: SweepResult, path) -> None:
    """Write the primary CSV (median mIoU) plus an `_ext` sibling.

    Primary header is exactly `snr,miou_f,miou_n,miou_s`; the sibling file
    carries means, measured BER, and per-pipeline bits per image.
    """
    path = Path(path)
    lines = [CSV_HEADER]
    for idx, snr in enumerate(result.snr_db):
        lines.append(",".join(_fmt(v) for v in [snr] + [result.column(c)[idx] for c in COLUMNS]))
    atomic.write_text_atomic(path, "\n".join(lines) + "\n")

    ext = path.with_name(path.stem + "_ext.csv")
    header = ["snr", *(c + "_mean" for c in COLUMNS), "ber", *(c.replace("miou", "bits") for c in COLUMNS)]
    lines = [",".join(header)]
    nan = float("nan")
    for idx, snr in enumerate(result.snr_db):
        cols = [_fmt(snr)]
        for col in COLUMNS:
            series = result.miou_mean.get(COLUMN_PIPELINE[col])
            cols.append(_fmt(series[idx] if series else nan))
        cols.append(_fmt(result.ber[idx] if result.ber else nan))
        for col in COLUMNS:
            cols.append(_fmt(result.bits_per_image.get(COLUMN_PIPELINE[col], nan)))
        lines.append(",".join(cols))
    atomic.write_text_atomic(ext, "\n".join(lines) + "\n")


def read_csv(path) -> SweepResult:
    """Read a primary sweep CSV back; raises ValueError naming the bad line."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    if not lines:
        raise ValueError(f"{path}: line 1: empty file")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: line 1: header {lines[0]!r} != {CSV_HEADER!r}")
    snrs: list[float] = []
    cols: dict[str, list[float]] = {c: [] for c in COLUMNS}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise ValueError(f"{path}: line {lineno}: blank row")
        cells = line.split(",")
        if len(cells) != 1 + len(COLUMNS):
            raise ValueError(f"{path}: line {lineno}: expected {1 + len(COLUMNS)} fields, got {len(cells)}")
        try:
            values = [float(f) for f in cells]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
        if not math.isfinite(values[0]):
            raise ValueError(f"{path}: line {lineno}: snr {cells[0]} is not finite")
        # nan marks a pipeline absent from the sweep, as write_csv writes it
        bad = [c for c, v in zip(cells[1:], values[1:]) if not (0.0 <= v <= 1.0 or math.isnan(v))]
        if bad:
            raise ValueError(f"{path}: line {lineno}: mIoU {bad[0]} outside [0, 1]")
        snrs.append(values[0])
        for col, value in zip(COLUMNS, values[1:]):
            cols[col].append(value)
    medians = {COLUMN_PIPELINE[c]: v for c, v in cols.items()}
    return SweepResult(modulation="", snr_db=snrs, miou_median=medians)

