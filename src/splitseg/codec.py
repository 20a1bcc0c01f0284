"""Bitstream codecs for the three transmitted object kinds.

Split pipeline: per-channel uniformly quantized feature maps.
Full-at-transmitter pipeline: packed label maps.
Traditional pipeline: raw 24-bit RGB rasters.

All bit packing is MSB-first within each byte; trailing pad bits are zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import SegmentationMap

MIN_QUANT_BITS = 1
MAX_QUANT_BITS = 16
STANDARD_QUANT_BITS = (4, 6, 8, 16)
_HEADER = struct.Struct(">III")  # channels, (height << 16 | width), bits per value
PAYLOAD_HEADER_FIXED_BITS = 8 * _HEADER.size
PAYLOAD_HEADER_BITS_PER_CHANNEL = 64  # float32 min and max


@dataclass
class BitStream:
    """A packed bit sequence: `n_bits` bits stored MSB-first in `data` bytes."""

    n_bits: int
    data: np.ndarray

    def __post_init__(self):
        if self.n_bits < 0:
            raise ValueError(f"negative bit count {self.n_bits}")
        d = np.asarray(self.data, dtype=np.uint8).reshape(-1)
        expected = (self.n_bits + 7) // 8
        if d.size != expected:
            raise ValueError(f"byte count {d.size} inconsistent with {self.n_bits} bits")
        pad = d.size * 8 - self.n_bits
        if pad and d.size:
            d = d.copy()
            d[-1] &= np.uint8((0xFF << pad) & 0xFF)
        self.data = d

    @classmethod
    def from_bits(cls, bits) -> "BitStream":
        bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
        return cls(int(bits.size), np.packbits(bits))

    def to_bits(self) -> np.ndarray:
        return np.unpackbits(self.data, count=self.n_bits)

    def copy(self) -> "BitStream":
        return BitStream(self.n_bits, self.data.copy())

    def same_as(self, other: "BitStream") -> bool:
        return self.n_bits == other.n_bits and bool(np.array_equal(self.data, other.data))


def _codes_to_bits(codes: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)


def _bits_to_codes(bits: np.ndarray, width: int) -> np.ndarray:
    groups = bits.reshape(-1, width).astype(np.uint32)
    weights = (np.uint32(1) << np.arange(width - 1, -1, -1, dtype=np.uint32))
    return (groups * weights[None, :]).sum(axis=1, dtype=np.uint32)


@dataclass
class FeaturePayload:
    """Quantized feature map plus the per-channel metadata needed to decode it."""

    channels: int
    height: int
    width: int
    bits_per_value: int
    mins: np.ndarray
    maxs: np.ndarray
    body: BitStream

    def __post_init__(self):
        if min(self.channels, self.height, self.width) < 1:
            raise ValueError(f"bad payload dims {self.channels}x{self.height}x{self.width}")
        if not (MIN_QUANT_BITS <= self.bits_per_value <= MAX_QUANT_BITS):
            raise ValueError(f"bits_per_value {self.bits_per_value} outside [1, 16]")
        self.mins = np.asarray(self.mins, dtype=np.float32).reshape(-1)
        self.maxs = np.asarray(self.maxs, dtype=np.float32).reshape(-1)
        if self.mins.size != self.channels or self.maxs.size != self.channels:
            raise ValueError("per-channel min/max length must equal channel count")
        if not (np.isfinite(self.mins).all() and np.isfinite(self.maxs).all()):
            raise ValueError("non-finite quantization range")
        if np.any(self.mins > self.maxs):
            raise ValueError("channel min exceeds max")
        expected = self.channels * self.height * self.width * self.bits_per_value
        if self.body.n_bits != expected:
            raise ValueError(f"body has {self.body.n_bits} bits, expected {expected}")


def quantize_features(features, bits_per_value: int = 8) -> FeaturePayload:
    """Per-channel affine uniform quantization to fixed-width codes.

    code = round((v - min_c) / (max_c - min_c) * (2^b - 1)); a constant
    channel (max == min) quantizes to all-zero codes.
    """
    if not (MIN_QUANT_BITS <= bits_per_value <= MAX_QUANT_BITS):
        raise ValueError(f"bits_per_value {bits_per_value} outside [1, 16]")
    x = np.asarray(features, dtype=np.float32)
    if x.ndim != 3:
        raise ValueError(f"features must be (channels, height, width), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite values")
    c, h, w = x.shape
    mins = x.min(axis=(1, 2))
    maxs = x.max(axis=(1, 2))
    levels = (1 << bits_per_value) - 1

    x64 = x.astype(np.float64)
    lo = mins.astype(np.float64)[:, None, None]
    span = (maxs.astype(np.float64) - mins.astype(np.float64))[:, None, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        codes = np.rint((x64 - lo) / span * levels)
    codes = np.where(span > 0, codes, 0.0)
    codes = np.clip(codes, 0, levels).astype(np.uint32)

    bits = _codes_to_bits(codes.reshape(-1), bits_per_value)
    return FeaturePayload(c, h, w, bits_per_value, mins, maxs, BitStream.from_bits(bits))


def dequantize_features(payload: FeaturePayload) -> np.ndarray:
    """Decode a payload back to a float32 tensor.

    v = min_c + code * (max_c - min_c) / (2^b - 1). Any code value, including
    ones produced by corrupted body bits, decodes into [min_c, max_c].
    """
    b = payload.bits_per_value
    levels = (1 << b) - 1
    codes = _bits_to_codes(payload.body.to_bits(), b).astype(np.float64)
    codes = codes.reshape(payload.channels, payload.height * payload.width)
    lo = payload.mins.astype(np.float64)[:, None]
    span = payload.maxs.astype(np.float64)[:, None] - lo
    vals = lo + codes * span / levels
    return vals.reshape(payload.channels, payload.height, payload.width).astype(np.float32)


def label_bits_per_pixel(num_classes: int) -> int:
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    return max((num_classes - 1).bit_length(), 1)


def encode_labelmap(seg: SegmentationMap, num_classes: int) -> BitStream:
    """Pack a label map at ceil(log2 K) bits per pixel, row-major."""
    labels = np.asarray(seg.labels).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")
    width = label_bits_per_pixel(num_classes)
    return BitStream.from_bits(_codes_to_bits(labels.astype(np.uint32), width))


def decode_labelmap(stream: BitStream, height: int, width: int, num_classes: int) -> SegmentationMap:
    """Unpack a label map; out-of-range codes (from bit errors) wrap mod K."""
    bpp = label_bits_per_pixel(num_classes)
    expected = height * width * bpp
    if stream.n_bits != expected:
        raise ValueError(f"bit count {stream.n_bits} != {expected} for {height}x{width}, K={num_classes}")
    codes = _bits_to_codes(stream.to_bits(), bpp)
    labels = (codes % np.uint32(num_classes)).astype(np.int32).reshape(height, width)
    return SegmentationMap(labels)


def encode_image(raster) -> BitStream:
    """Pack an 8-bit RGB raster at 24 bits per pixel, R,G,B order, row-major."""
    r = np.asarray(raster)
    if r.dtype != np.uint8 or r.ndim != 3 or r.shape[2] != 3:
        raise ValueError(f"raster must be uint8 with shape (H, W, 3), got {r.dtype} {r.shape}")
    flat = np.ascontiguousarray(r).reshape(-1)
    return BitStream(int(flat.size) * 8, flat.copy())


def decode_image(stream: BitStream, height: int, width: int) -> np.ndarray:
    if stream.n_bits != height * width * 24:
        raise ValueError(f"bit count {stream.n_bits} != {height * width * 24} for {height}x{width} RGB")
    return stream.data[: height * width * 3].reshape(height, width, 3).copy()


def payload_header_bits(channels: int) -> int:
    return PAYLOAD_HEADER_FIXED_BITS + PAYLOAD_HEADER_BITS_PER_CHANNEL * channels


def serialize_payload(payload: FeaturePayload) -> tuple[BitStream, BitStream]:
    """Split a payload into (header_bits, body_bits).

    Header layout, big-endian: u32 channels, u32 (height << 16 | width),
    u32 bits_per_value, then per channel float32 min and float32 max.
    """
    if payload.height >= 1 << 16 or payload.width >= 1 << 16:
        raise ValueError("payload dims exceed the 16-bit header fields")
    head = _HEADER.pack(payload.channels, (payload.height << 16) | payload.width, payload.bits_per_value)
    ranges = np.empty(2 * payload.channels, dtype=">f4")
    ranges[0::2] = payload.mins
    ranges[1::2] = payload.maxs
    header_bytes = np.frombuffer(head + ranges.tobytes(), dtype=np.uint8)
    header = BitStream(payload_header_bits(payload.channels), header_bytes.copy())
    return header, payload.body.copy()


def deserialize_payload(header: BitStream, body: BitStream) -> FeaturePayload:
    """Rebuild a payload from header and (possibly corrupted) body streams."""
    if header.n_bits < PAYLOAD_HEADER_FIXED_BITS or header.n_bits % 8 != 0:
        raise ValueError(f"malformed header: {header.n_bits} bits")
    raw = header.data.tobytes()
    channels, dims, bits_per_value = _HEADER.unpack_from(raw)
    if header.n_bits != payload_header_bits(channels):
        raise ValueError(f"malformed header: {header.n_bits} bits for {channels} channels")
    height, width = dims >> 16, dims & 0xFFFF
    ranges = np.frombuffer(raw, dtype=">f4", offset=_HEADER.size)
    return FeaturePayload(
        channels, height, width, bits_per_value,
        ranges[0::2].astype(np.float32), ranges[1::2].astype(np.float32), body.copy(),
    )
