"""Synthetic scene generation and dataset files (PPM images, PGM label maps)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .atomic import write_bytes_atomic
from .model import SegmentationMap


def class_palette(num_classes: int) -> np.ndarray:
    """Deterministic base color per class, uint8 (K, 3)."""
    k = np.arange(num_classes)
    r = (40 + 97 * k) % 256
    g = (90 + 61 * k) % 256
    b = (160 + 151 * k) % 256
    return np.stack([r, g, b], axis=1).astype(np.uint8)


# Standard deviation of the Gaussian pixel noise in generate_synthetic, in
# 8-bit levels, and the bytes of one block of its float64 noise.
_NOISE_SIGMA = 8.0
_NOISE_BLOCK_BYTES = 1 << 20


def _paint_region(labels: np.ndarray, rng: np.random.Generator, num_classes: int) -> None:
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
        # only the inclusive bounding box: a pixel ry away on the axis is inside
        y0, y1 = max(cy - ry, 0), min(cy + ry + 1, h)
        x0, x1 = max(cx - rx, 0), min(cx + rx + 1, w)
        yy, xx = np.ogrid[y0:y1, x0:x1]
        mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        labels[y0:y1, x0:x1][mask] = cls


def generate_synthetic(
    n: int, num_classes: int, height: int, width: int, seed: int,
) -> list[tuple[np.ndarray, SegmentationMap]]:
    """Generate n (RGB raster, ground-truth map) pairs.

    Each scene is a background class plus 3-8 axis-aligned rectangles or
    ellipses; the class of a region fixes its base color, and Gaussian pixel
    noise is added on top. Every map contains at least two distinct classes.
    Deterministic for a fixed (seed, n, dims).
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    palette = class_palette(num_classes)
    out = []
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0, i))))
        background = int(rng.integers(num_classes))
        labels = np.full((height, width), background, dtype=np.int32)
        for _ in range(int(rng.integers(3, 9))):
            _paint_region(labels, rng, num_classes)
        if np.unique(labels).size < 2:
            labels[: height // 4, : width // 4] = (background + 1) % num_classes
        # the noisy image in blocks of rows, drawn in order from the one
        # generator: the same normals as one draw of the full size, and the
        # same values as clip(rint(palette[labels] + noise)) (a + b == b + a)
        raster = np.empty((height, width, 3), dtype=np.uint8)
        step = max(1, _NOISE_BLOCK_BYTES // (24 * width))
        for r0 in range(0, height, step):
            rows = slice(r0, r0 + step)
            img = rng.normal(0.0, _NOISE_SIGMA, raster[rows].shape)
            img += palette[labels[rows]]
            np.rint(img, out=img)
            np.clip(img, 0, 255, out=img)
            raster[rows] = img
        out.append((raster, SegmentationMap(labels)))
    return out


def raster_to_tensor(raster: np.ndarray) -> np.ndarray:
    """uint8 (H, W, 3) raster to float32 (3, H, W) tensor in [0, 1], in one
    C-contiguous array: the cast is copied into it and divided in place."""
    planes = raster.transpose(2, 0, 1)
    out = np.empty(planes.shape, dtype=np.float32)
    np.copyto(out, planes, casting="unsafe")
    out /= np.float32(255.0)
    return out


def save_ppm(path, raster: np.ndarray) -> None:
    r = np.asarray(raster)
    if r.dtype != np.uint8 or r.ndim != 3 or r.shape[2] != 3:
        raise ValueError(f"raster must be uint8 (H, W, 3), got {r.dtype} {r.shape}")
    h, w = r.shape[:2]
    write_bytes_atomic(path, f"P6\n{w} {h}\n255\n".encode("ascii") + np.ascontiguousarray(r).tobytes())


def save_pgm(path, labels: np.ndarray) -> None:
    a = np.asarray(labels)
    if a.ndim != 2 or a.min() < 0 or a.max() > 255:
        raise ValueError("labels must be a 2-D array of values in [0, 255]")
    h, w = a.shape
    write_bytes_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + a.astype(np.uint8).tobytes())


def _read_pnm_header(f, magic: bytes) -> tuple[int, int]:
    if f.read(2) != magic:
        raise ValueError(f"not a {magic.decode()} file")

    def char() -> bytes:
        # a comment runs from "#" to the line's end (CR or LF), anywhere in the
        # header, even right after a number's digits; it reads as that end
        ch = f.read(1)
        if ch == b"#":
            while ch not in (b"\n", b"\r", b""):
                ch = f.read(1)
        return ch

    fields = []
    while len(fields) < 3:
        tok = b""
        ch = char()
        while ch.isspace():
            ch = char()
        while ch and not ch.isspace():
            tok += ch
            ch = char()
        if not tok:
            raise ValueError("truncated header")
        fields.append(int(tok))
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"image dims must be at least 1, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"only 8-bit files supported, maxval={maxval}")
    return w, h


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """The (h, w, channels) uint8 pixels of a binary PPM/PGM file."""
    with open(path, "rb") as f:
        w, h = _read_pnm_header(f, magic)
        data = f.read()  # what the file holds: the header's dims may be huge
    count = w * h * channels
    if len(data) < count:
        raise ValueError(f"truncated pixel data in {path}")
    return np.frombuffer(data, dtype=np.uint8, count=count).reshape(h, w, channels)


def load_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6", 3).copy()


def load_pgm(path) -> np.ndarray:
    return _read_pnm(path, b"P5", 1)[:, :, 0].astype(np.int32)


def write_dataset(dirpath, pairs) -> list[str]:
    """Write (raster, map) pairs as img_NNNN.ppm / img_NNNN.pgm files."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (raster, seg) in enumerate(pairs):
        ppm = d / f"img_{i:04d}.ppm"
        pgm = d / f"img_{i:04d}.pgm"
        save_ppm(ppm, raster)
        save_pgm(pgm, seg.labels)
        written += [str(ppm), str(pgm)]
    return written


def load_dataset_dir(dirpath) -> list[tuple[np.ndarray, SegmentationMap]]:
    """Load every .ppm with its .pgm sibling; report all broken files at once."""
    d = Path(dirpath)
    if not d.is_dir():
        raise ValueError(f"{d}: not a directory") if d.exists() else FileNotFoundError(str(d))
    ppms = sorted(d.glob("*.ppm"))
    if not ppms:
        raise ValueError(f"no .ppm files in {d}")
    pairs = []
    problems = []
    for ppm in ppms:
        pgm = ppm.with_suffix(".pgm")
        try:
            raster = load_ppm(ppm)
            if not pgm.exists():
                raise ValueError(f"missing label map {pgm.name}")
            labels = load_pgm(pgm)
            if labels.shape != raster.shape[:2]:
                raise ValueError(f"label map {pgm.name} dims {labels.shape} != image {raster.shape[:2]}")
            pairs.append((raster, SegmentationMap(labels)))
        except (OSError, ValueError) as exc:
            problems.append(f"{ppm.name}: {exc}")
    if problems:
        raise ValueError("dataset load failed:\n  " + "\n  ".join(problems))
    return pairs
