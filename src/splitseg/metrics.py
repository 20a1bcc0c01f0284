"""Segmentation accuracy (IoU/mIoU), payload accounting, reduction reports,
and the table of pipelines with their send and receive halves."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import codec, dataio, model as M
from .model import ModelConfig, SegmentationMap


# Each pipeline is a send half and a receive half, which `experiments.run`
# joins across the channel. send(raster, weights, quant_bits, clean) returns
# (stream exposed to noise, side stream that crosses error-free or None,
# label map already in hand or None); receive(received, side, weights)
# returns the label map. A stream that arrives without a flip is the stream
# sent, so the map in hand is what the receive half would compute. The halves
# call `codec`, `dataio` and `model` through module attributes, so a tracer
# that replaces those attributes sees every layer.

def _send_raster(raster, weights, quant_bits, clean):
    # `clean` is the raster's own label map when the caller holds one
    return codec.encode_image(raster), None, clean


def _receive_raster(received, side, weights):
    cfg = weights.config
    decoded = codec.decode_image(received, cfg.input_height, cfg.input_width)
    return M.forward_full(dataio.raster_to_tensor(decoded), weights)[1]


def _send_labels(raster, weights, quant_bits, clean):
    _, seg = M.forward_full(dataio.raster_to_tensor(raster), weights)
    return codec.encode_labelmap(seg, weights.config.num_classes), None, seg


def _receive_labels(received, side, weights):
    cfg = weights.config
    return codec.decode_labelmap(received, cfg.input_height, cfg.input_width, cfg.num_classes)


def _send_features(raster, weights, quant_bits, clean):
    # the range header is the side stream; no map is in hand, because the
    # clean labels would take the receiver on the un-noised payload
    features = M.forward_transmitter(dataio.raster_to_tensor(raster), weights)
    header, body = codec.serialize_payload(codec.quantize_features(features, quant_bits))
    return body, header, None


def _receive_features(received, side, weights):
    payload = codec.deserialize_payload(side, received)
    return M.forward_receiver(codec.dequantize_features(payload), weights)[1]


class Pipeline(NamedTuple):
    name: str
    column: str  # sweep CSV column holding its median mIoU
    tx_last_stage: Callable[[], int]  # last network stage run at the transmitter, -1 for none
    send: Callable
    receive: Callable


# The only description of the pipelines. Row order is each pipeline's index
# in its trials' noise substream key, so reordering rows changes every sweep.
# The split row reads model.SPLIT_BOUNDARY when called, as its halves do.
PIPELINE_TABLE = (
    Pipeline("traditional", "miou_n", lambda: -1, _send_raster, _receive_raster),
    Pipeline("full_tx", "miou_f", lambda: M.TOTAL_STAGES - 1, _send_labels, _receive_labels),
    Pipeline("split", "miou_s", lambda: M.SPLIT_BOUNDARY, _send_features, _receive_features),
)
PIPELINES = tuple(p.name for p in PIPELINE_TABLE)


def pipeline_index(pipeline: str) -> int:
    """The row of a pipeline name in PIPELINE_TABLE, which is also its index in
    trial noise keys; an unknown name raises ValueError."""
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}, expected one of {PIPELINES}")
    return PIPELINES.index(pipeline)


# External reference operating point shown next to the measured
# transmitter-compute reduction in ComputeReport.
REFERENCE_TX_REDUCTION_PCT = 19.8


def confusion(reference: SegmentationMap, predicted: SegmentationMap, num_classes: int) -> np.ndarray:
    """K x K count matrix; entry (g, p) counts pixels of true class g predicted p."""
    ref = np.asarray(reference.labels)
    pred = np.asarray(predicted.labels)
    if ref.shape != pred.shape:
        raise ValueError(f"dimension mismatch: reference {ref.shape}, predicted {pred.shape}")
    ref = ref.reshape(-1)
    pred = pred.reshape(-1)
    if ref.min() < 0 or ref.max() >= num_classes or pred.min() < 0 or pred.max() >= num_classes:
        raise ValueError(f"labels outside [0, {num_classes})")
    idx = ref.astype(np.int64) * num_classes + pred
    return np.bincount(idx, minlength=num_classes * num_classes).reshape(num_classes, num_classes)


def miou(cm: np.ndarray) -> tuple[list[float | None], float]:
    """Per-class IoU = TP / (TP + FP + FN) and its mean.

    Classes with no reference or predicted pixels get IoU None and are left
    out of the mean. With every class absent the mean is NaN, which is
    distinct from a genuine 0.
    """
    cm = np.asarray(cm, dtype=np.int64)
    tp = np.diag(cm)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    denom = tp + fp + fn
    per_class: list[float | None] = [
        float(tp[k]) / float(denom[k]) if denom[k] else None for k in range(cm.shape[0])
    ]
    values = [v for v in per_class if v is not None]
    if not values:
        return per_class, float("nan")
    return per_class, float(sum(values) / len(values))


def bits_per_image(pipeline: str, config: ModelConfig, quant_bits: int = 8) -> int:
    """Bits transmitted per image for one pipeline.

    traditional: 24 bpp raw RGB. full_tx: ceil(log2 K) bpp packed labels.
    split: the quantized body of the tensor at the model's split boundary plus
    its range header.
    """
    pipeline_index(pipeline)  # an unknown name raises here
    h, w = config.input_height, config.input_width
    if pipeline == "traditional":
        return 24 * h * w
    if pipeline == "full_tx":
        return codec.label_bits_per_pixel(config.num_classes) * h * w
    cut = M.split_cut(config)
    return cut.cout * cut.out_h * cut.out_w * quant_bits + codec.payload_header_bits(cut.cout)


def pipeline_macs(pipeline: str, config: ModelConfig) -> tuple[int, int]:
    """Convolution MACs (transmitter, receiver) of one pipeline."""
    return M.mac_count(config, PIPELINE_TABLE[pipeline_index(pipeline)].tx_last_stage())


def bitrate_mbps(bits: int, frames_per_second: float) -> float:
    return bits * frames_per_second / 1e6


class _Report:
    """JSON form shared by the report dataclasses."""

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class RateReport(_Report):
    """Per-pipeline payload sizes and the split pipeline's reductions."""

    bits_per_image: dict[str, int]
    mbps: dict[str, float]
    reduction_vs_traditional_pct: float
    reduction_vs_full_tx_pct: float
    quant_bits: int
    frames_per_second: float
    config: dict


def rate_report(config: ModelConfig, quant_bits: int = 8, frames_per_second: float = 1.0) -> RateReport:
    bits = {p: bits_per_image(p, config, quant_bits) for p in PIPELINES}
    mbps = {p: bitrate_mbps(b, frames_per_second) for p, b in bits.items()}
    return RateReport(
        bits_per_image=bits,
        mbps=mbps,
        reduction_vs_traditional_pct=100.0 * (1.0 - bits["split"] / bits["traditional"]),
        reduction_vs_full_tx_pct=100.0 * (1.0 - bits["split"] / bits["full_tx"]),
        quant_bits=quant_bits,
        frames_per_second=frames_per_second,
        config=config.to_dict(),
    )


@dataclass
class ComputeReport(_Report):
    """Per-pipeline transmitter/receiver MACs and the split's reduction."""

    tx_macs: dict[str, int]
    rx_macs: dict[str, int]
    tx_reduction_pct: float
    reference_tx_reduction_pct: float
    config: dict


def compute_report(config: ModelConfig) -> ComputeReport:
    macs = {p: pipeline_macs(p, config) for p in PIPELINES}
    return ComputeReport(
        tx_macs={p: tx for p, (tx, _) in macs.items()},
        rx_macs={p: rx for p, (_, rx) in macs.items()},
        tx_reduction_pct=100.0 * (1.0 - macs["split"][0] / macs["full_tx"][0]),
        reference_tx_reduction_pct=REFERENCE_TX_REDUCTION_PCT,
        config=config.to_dict(),
    )
