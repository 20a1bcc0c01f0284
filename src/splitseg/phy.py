"""Modeled radio link: Gray-mapped QPSK/16QAM over AWGN, hard decisions.

`transmit` streams the link in blocks through `modulate`, `apply_awgn` and
`demodulate`, each called through this module's attributes. Each stage
keeps its temporaries to a few block-sized arrays. The noise is drawn
straight into the output, and the slicer's margin test runs only on the
symbols within one bound of a threshold per block. Both give the bits of
the plain forms, which the tests keep as oracles.

SNR is interpreted as Es/N0 per complex symbol (average symbol energy is
normalized to 1 for both constellations), so the two modulations are
directly comparable on a shared SNR axis. Noise is N0/2 per real dimension
with N0 = 10^(-snr_db/10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import BitStream
from .model import as_scalar, as_seed

QPSK = "qpsk"
QAM16 = "16qam"
MODULATIONS = (QPSK, QAM16)

# Half-width of the band around each decision threshold, relative to
# 1 + |y|^2, inside which the slicer defers to the minimum-distance rule.
# Rounding in the 2-D distance sum stays below 1e-15 * (1 + |y|^2), so
# outside the band the slicer and the full search agree bit for bit.
_SLICER_MARGIN = 1e-9

# Stream bytes per block in `transmit`: 32,768 QPSK symbols, a 512 KiB
# complex128 temporary. Of 4, 8, 16 and 32 KiB, 8 KiB timed fastest, or
# within noise of it, on a 1.57 Mbit stream.
_LINK_BLOCK_BYTES = 8192

# Gray-coded 4-PAM axis levels indexed by bit pair value: 00 01 10 11
_GRAY4 = np.array([-3.0, -1.0, 3.0, 1.0])


def _make_tables() -> dict[str, tuple[np.ndarray, int]]:
    codes4 = np.arange(4)
    qpsk = ((1 - 2 * (codes4 >> 1)) + 1j * (1 - 2 * (codes4 & 1))) / math.sqrt(2.0)
    codes16 = np.arange(16)
    qam = (_GRAY4[codes16 >> 2] + 1j * _GRAY4[codes16 & 3]) / math.sqrt(10.0)
    return {QPSK: (qpsk, 2), QAM16: (qam, 4)}


_TABLES = _make_tables()


def constellation(modulation: str) -> tuple[np.ndarray, int]:
    """Return (points indexed by bit-pattern value, bits per symbol)."""
    if modulation not in MODULATIONS:  # not a dict lookup: an unhashable value is unknown too
        raise ValueError(f"unknown modulation {modulation!r}, expected one of {MODULATIONS}")
    return _TABLES[modulation]


@dataclass(frozen=True)
class ChannelConfig:
    """One AWGN link: modulation scheme, Es/N0 in dB, and noise seed."""

    modulation: str
    snr_db: float
    seed: int = 0

    def __post_init__(self):
        constellation(self.modulation)
        object.__setattr__(self, "snr_db", as_scalar("snr_db", self.snr_db, float))
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        try:
            noise_power(self.snr_db)
        except OverflowError:
            raise ValueError(
                f"snr_db must be at least about -3082.5 dB, where the noise power overflows float64; "
                f"got {self.snr_db}"
            ) from None
        object.__setattr__(self, "seed", as_seed("seed", self.seed))


@dataclass
class SymbolBlock:
    """Complex baseband samples plus the pre-padding bit count."""

    symbols: np.ndarray
    bit_count: int

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=np.complex128).reshape(-1)
        if self.bit_count < 0:
            raise ValueError(f"negative bit count {self.bit_count}")


def _byte_symbols(points: np.ndarray, bps: int) -> np.ndarray:
    """The 8 // bps symbols each byte value carries, MSB-first: shape (256, 8 // bps)."""
    shifts = np.arange(8 - bps, -1, -bps)
    return points[(np.arange(256)[:, None] >> shifts) & ((1 << bps) - 1)]


_BYTE_SYMBOLS = {m: _byte_symbols(*_TABLES[m]) for m in MODULATIONS}


def modulate(stream: BitStream, modulation: str) -> SymbolBlock:
    """Map a bit stream to constellation symbols, zero-padding to a symbol boundary."""
    _, bps = constellation(modulation)
    # bps divides 8 and a stream's pad bits are zero, so each byte holds
    # whole symbols and the last one is already padded
    symbols = np.take(_BYTE_SYMBOLS[modulation], stream.data, axis=0).reshape(-1)
    return SymbolBlock(symbols[: -(-stream.n_bits // bps)], int(stream.n_bits))


def noise_power(snr_db: float) -> float:
    """N0 at Es = 1; raises OverflowError below about -3082.5 dB, where
    10^(-snr_db/10) exceeds float64."""
    return 10.0 ** (-snr_db / 10.0)


def apply_awgn(block: SymbolBlock, snr_db: float, rng: np.random.Generator) -> SymbolBlock:
    """Add complex Gaussian noise at the given Es/N0 (dB), Es = 1.

    The normals are drawn straight into the output's real and imaginary
    parts, interleaved, and scaled there: numpy's normal(0, sigma) is
    0 + sigma * z, so these are the draws of rng.normal(0.0, sigma, (n, 2)),
    and the sums equal symbols + noise bit for bit. The one exception: a
    -0.0 part plus a -0.0 draw stays -0.0, where 0 + sigma * z would have
    made the noise +0.0. Modulated symbols have no zero part.
    """
    sigma = math.sqrt(noise_power(snr_db) / 2.0)
    noisy = np.empty(block.symbols.size, dtype=np.complex128)
    parts = noisy.view(np.float64)
    rng.standard_normal(out=parts)
    parts *= sigma
    parts += np.ascontiguousarray(block.symbols).view(np.float64)
    return SymbolBlock(noisy, block.bit_count)


def _min_distance_codes(y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the nearest point to each symbol; ties keep the smallest index.

    A running minimum over the points, so memory stays linear in the
    symbol count; NaN distances never compare smaller and leave index 0.
    """
    codes = np.zeros(y.size, dtype=np.uint8)
    best = (y.real - points[0].real) ** 2 + (y.imag - points[0].imag) ** 2
    for code in range(1, points.size):
        d = (y.real - points[code].real) ** 2 + (y.imag - points[code].imag) ** 2
        closer = d < best
        codes[closer] = code
        best[closer] = d[closer]
    return codes


def _not_clear(parts: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Rows of `parts` (real, imaginary) whose distance `near` to the nearest
    threshold is not clear of the band _SLICER_MARGIN * (1 + |y|^2); "not
    clear" rather than "inside", so NaN counts too."""
    with np.errstate(over="ignore"):  # |y|^2 = inf makes the band infinite
        energy = parts * parts
        margin = energy[:, 0] + energy[:, 1]
    margin += 1.0
    margin *= _SLICER_MARGIN
    return np.flatnonzero(np.logical_not(near > margin))


def demodulate(block: SymbolBlock, modulation: str) -> BitStream:
    """Minimum-distance hard decisions; ties pick the smallest bit pattern.

    Each axis is sliced on its own: QPSK bits are sign tests, 16QAM bits
    compare against 0 and +-2/sqrt(10). A symbol within the relative margin
    of a threshold, or non-finite, is decided by the full minimum-distance
    search instead, which settles exact and rounding-made ties the same way
    for every symbol.

    The margin test runs only on candidates: the symbols no farther from a
    threshold than _SLICER_MARGIN * (1 + 2 * max|v|^2), one bound for the
    block over its real and imaginary parts v. Rounding is monotone, so the
    bound is at least every symbol's own margin, and a symbol outside it is
    clear. In a block with a non-finite part the bound is infinite or NaN,
    which no symbol is clear of, so every symbol is a candidate.
    """
    points, bps = constellation(modulation)
    y = np.ascontiguousarray(block.symbols)
    v = y.view(np.float64)  # real and imaginary parts, interleaved
    a = np.abs(v)
    peak = float(a.max(initial=0.0))  # NaN when a part is NaN
    if modulation == QPSK:
        bits = v < 0.0
    else:
        t = 2.0 / math.sqrt(10.0)
        bits = np.empty((v.size, 2), dtype=bool)
        np.greater(v, 0.0, out=bits[:, 0])
        np.less(a, t, out=bits[:, 1])
        off_t = np.subtract(a, t)
        np.minimum(a, np.abs(off_t, out=off_t), out=a)  # each part's distance to 0 or +-t
        del off_t
    near = np.minimum(a[0::2], a[1::2])  # distance to the nearest threshold, per symbol
    del a  # the search below then holds only symbol-sized arrays besides `bits`
    pairs = v.reshape(-1, 2)
    square = peak * peak  # at least every part's rounded square; inf past 1.3e154, NaN at a NaN part
    candidates = np.flatnonzero(np.logical_not(near > (square + square + 1.0) * _SLICER_MARGIN))
    suspect = candidates[_not_clear(pairs[candidates], near[candidates])]
    if suspect.size:
        with np.errstate(over="ignore"):
            codes = _min_distance_codes(y[suspect], points)
        shifts = np.arange(bps - 1, -1, -1)
        bits.reshape(-1, bps)[suspect] = (codes[:, None] >> shifts) & 1
    n_bits = min(block.bit_count, y.size * bps)
    return BitStream(n_bits, np.packbits(bits.reshape(-1))[: (n_bits + 7) // 8])


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber_theoretical(modulation: str, snr_db: float) -> float:
    """Closed-form bit error rate over AWGN at Es/N0 = snr_db.

    QPSK: Q(sqrt(2 Eb/N0)) with Eb/N0 = (Es/N0)/2. 16QAM: Gray-mapped
    nearest-neighbor approximation (3/4) Q(sqrt(0.2 Es/N0)). Above about
    3082.5 dB, where Es/N0 overflows float64, the rate is Q(inf) = 0.
    """
    constellation(modulation)  # rejects an unknown modulation
    try:
        g = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return 0.0
    if modulation == QPSK:
        return qfunc(math.sqrt(g))
    return 0.75 * qfunc(math.sqrt(0.2 * g))


def transmit(stream: BitStream, channel: ChannelConfig) -> BitStream:
    """modulate -> AWGN -> demodulate; output length equals input length.

    The stream goes through the link in blocks of _LINK_BLOCK_BYTES bytes,
    so the symbol, noise and slicer temporaries stay block-sized. The bits
    equal those of one pass over the whole stream: bits per symbol divide 8,
    so a block holds whole symbols; only the last block has pad bits, which
    its BitStream zeroes; and one generator is drawn block after block, which
    yields the same normals as one draw of the full size.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(channel.seed)))
    out = np.empty_like(stream.data)
    for start in range(0, out.size, _LINK_BLOCK_BYTES):
        stop = start + _LINK_BLOCK_BYTES
        part = BitStream(min(8 * stop, stream.n_bits) - 8 * start, stream.data[start:stop])
        noisy = apply_awgn(modulate(part, channel.modulation), channel.snr_db, rng)
        out[start:stop] = demodulate(noisy, channel.modulation).data
    return BitStream(stream.n_bits, out)
