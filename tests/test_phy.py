"""Link-layer tests: constellations, noise calibration, BER against theory."""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from splitseg import phy
from splitseg.codec import BitStream
from splitseg.model import ConfigError
from splitseg.phy import QAM16, QPSK, ChannelConfig


def random_stream(n, seed):
    rng = np.random.default_rng(seed)
    return BitStream.from_bits(rng.integers(0, 2, n).astype(np.uint8))


def argmin_demodulate(block, modulation):
    """Minimum distance over the full constellation; argmin keeps the smallest pattern.

    `phy.demodulate` must match it bit for bit on every input.
    """
    points, bps = phy.constellation(modulation)
    y = block.symbols
    with np.errstate(over="ignore", invalid="ignore"):
        d = (y.real[:, None] - points.real[None, :]) ** 2
        d += (y.imag[:, None] - points.imag[None, :]) ** 2
    codes = np.argmin(d, axis=1)
    shifts = np.arange(bps - 1, -1, -1)
    bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)
    return BitStream.from_bits(bits[: block.bit_count])


def suspect_symbols(symbols, modulation):
    """Indices of the symbols within the margin band of a threshold, or not
    finite, tested symbol by symbol: the ones `phy.demodulate` must hand to
    the minimum-distance search, and no others."""
    v = symbols.view(np.float64).reshape(-1, 2)
    a = np.abs(v)
    if modulation == QAM16:
        a = np.minimum(a, np.abs(a - 2.0 / math.sqrt(10.0)))
    with np.errstate(over="ignore"):
        energy = v * v
        margin = (energy[:, 0] + energy[:, 1] + 1.0) * phy._SLICER_MARGIN
    return np.flatnonzero(~(np.minimum(a[:, 0], a[:, 1]) > margin))


def near_margin_symbols(modulation, count, seed):
    """Symbols with one part on a threshold's margin, a millionth inside or
    outside it, the other part anywhere up to that threshold's size (so the
    largest part of the block may be the one next to the threshold)."""
    rng = np.random.default_rng(seed)
    thresholds = [0.0] if modulation == QPSK else [0.0, 2.0 / math.sqrt(10.0), -2.0 / math.sqrt(10.0)]
    edge = rng.choice(thresholds, count)
    other = rng.uniform(-1.0, 1.0, count) * np.maximum(np.abs(edge), rng.choice([1e-3, 0.3, 1.0], count))
    other = np.where(rng.random(count) < 0.3, edge, other)  # both parts on the same threshold
    margin = (edge * edge + other * other + 1.0) * phy._SLICER_MARGIN
    offset = margin * rng.choice([1.0 - 1e-6, 1.0 + 1e-6], count) * rng.choice([-1.0, 1.0], count)
    parts = np.stack([edge + offset, other], axis=1)
    swap = rng.random(count) < 0.5
    parts[swap] = parts[swap, ::-1]
    return parts.view(np.complex128).reshape(-1)


def matmul_modulate(stream, modulation):
    """Unpack, zero-pad to a symbol boundary, and weigh bit groups into codes."""
    points, bps = phy.constellation(modulation)
    bits = stream.to_bits()
    bits = np.concatenate([bits, np.zeros((-bits.size) % bps, dtype=np.uint8)])
    codes = bits.reshape(-1, bps) @ (1 << np.arange(bps - 1, -1, -1))
    return phy.SymbolBlock(points[codes], int(stream.n_bits))


def complex_sum_awgn(block, snr_db, rng):
    """Noise added as a complex temporary: symbols + n_re + 1j * n_im."""
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    noise = rng.normal(0.0, sigma, size=(block.symbols.size, 2))
    return phy.SymbolBlock(block.symbols + noise[:, 0] + 1j * noise[:, 1], block.bit_count)


def normal_pair_awgn(block, snr_db, rng):
    """Noise drawn as an (n, 2) array of normals and added to a copy of the
    symbols' interleaved real and imaginary parts.

    `phy.apply_awgn` must match it bit for bit on modulated symbols.
    """
    sigma = math.sqrt(phy.noise_power(snr_db) / 2.0)
    noise = rng.normal(0.0, sigma, size=(block.symbols.size, 2))
    noisy = block.symbols.copy()
    noisy.view(np.float64)[:] += noise.reshape(-1)
    return phy.SymbolBlock(noisy, block.bit_count)


def one_shot_transmit(stream, channel):
    """The whole stream through modulate -> AWGN -> demodulate in one pass.

    `phy.transmit` must match it bit for bit.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(channel.seed)))
    block = phy.apply_awgn(phy.modulate(stream, channel.modulation), channel.snr_db, rng)
    return phy.demodulate(block, channel.modulation)


def same_symbols(a, b):
    return a.bit_count == b.bit_count and np.array_equal(
        a.symbols.view(np.uint64), b.symbols.view(np.uint64)
    )


def boundary_axis_values():
    """Per-axis values on and next to the thresholds and the constellation
    levels, down to subnormals, up to overflow of |y|^2, and non-finite."""
    t = 2.0 / math.sqrt(10.0)
    base = [0.0, 5e-324, 1e-300, 1e-16, np.nextafter(0.0, 1.0), 0.3, 0.5, 1.0, 3.0,
            1e8, 1e50, 1e100, 1e150, 1e154, 1e200, np.inf]
    for edge in (t, 1.0 / math.sqrt(2.0)):
        base += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0),
                 edge + 1e-9, edge - 1e-9, edge + 1e-15, edge - 1e-15]
    values = np.array(base)
    return np.concatenate([values, -values, [np.nan]])


def measured_ber(n_bits, modulation, snr_db, seed):
    stream = random_stream(n_bits, seed)
    out = phy.transmit(stream, ChannelConfig(modulation, snr_db, seed=seed))
    return np.count_nonzero(stream.to_bits() != out.to_bits()) / n_bits


class TestConstellations:
    def test_qpsk_declared_mapping(self):
        block = phy.modulate(BitStream.from_bits(np.array([0, 0], dtype=np.uint8)), QPSK)
        assert block.symbols[0] == pytest.approx((1 + 1j) / math.sqrt(2))
        block = phy.modulate(BitStream.from_bits(np.array([1, 0], dtype=np.uint8)), QPSK)
        assert block.symbols[0] == pytest.approx((-1 + 1j) / math.sqrt(2))

    def test_qam16_gray_axis_levels(self):
        # per-axis pairs: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3 (scaled by 1/sqrt 10)
        cases = {
            (0, 0, 0, 0): (-3 - 3j), (0, 1, 0, 1): (-1 - 1j),
            (1, 1, 1, 1): (1 + 1j), (1, 0, 1, 0): (3 + 3j),
            (0, 0, 1, 0): (-3 + 3j),
        }
        for bits, point in cases.items():
            block = phy.modulate(BitStream.from_bits(np.array(bits, dtype=np.uint8)), QAM16)
            assert block.symbols[0] == pytest.approx(point / math.sqrt(10))

    def test_unit_average_energy(self):
        for mod in (QPSK, QAM16):
            points, _ = phy.constellation(mod)
            assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-12

    def test_gray_adjacency(self):
        # nearest-neighbor constellation points differ in exactly one bit
        for mod in (QPSK, QAM16):
            points, bps = phy.constellation(mod)
            n = len(points)
            d = np.abs(points[:, None] - points[None, :])
            dmin = d[d > 1e-12].min()
            for a in range(n):
                for b in range(a + 1, n):
                    if abs(d[a, b] - dmin) < 1e-9:
                        assert bin(a ^ b).count("1") == 1, f"{mod}: {a:0{bps}b} vs {b:0{bps}b}"

    def test_padding_rule(self):
        block = phy.modulate(random_stream(5, 1), QPSK)
        assert block.symbols.size == 3
        assert block.bit_count == 5

    def test_unknown_modulation_rejected(self):
        with pytest.raises(ValueError, match="unknown modulation"):
            phy.modulate(random_stream(4, 2), "8psk")


class TestChannel:
    def test_noiseless_round_trip_large(self):
        stream = random_stream(100_000, 3)
        out = phy.transmit(stream, ChannelConfig(QPSK, 100.0, seed=5))
        assert out.same_as(stream)

    def test_noiseless_round_trip_both_modulations(self):
        stream = random_stream(10_000, 4)
        for mod in (QPSK, QAM16):
            noiseless = phy.demodulate(phy.modulate(stream, mod), mod)
            assert noiseless.same_as(stream)

    def test_noise_variance_calibration(self):
        # at 0 dB, per-dimension variance is N0/2 = 0.5
        rng = np.random.Generator(np.random.Philox(12345))
        n = 100_000
        block = phy.modulate(random_stream(2 * n, 6), QPSK)
        noisy = phy.apply_awgn(block, 0.0, rng)
        noise = noisy.symbols - block.symbols
        dims = np.concatenate([noise.real, noise.imag])
        var = dims.var()
        se = 0.5 * math.sqrt(2.0 / dims.size)
        assert abs(var - 0.5) < 3 * se

    def test_seed_determinism(self):
        stream = random_stream(5000, 7)
        cfg = ChannelConfig(QAM16, 10.0, seed=77)
        assert phy.transmit(stream, cfg).same_as(phy.transmit(stream, cfg))
        other = phy.transmit(stream, ChannelConfig(QAM16, 10.0, seed=78))
        assert not other.same_as(phy.transmit(stream, cfg))

    @pytest.mark.parametrize("n", [1, 7, 8, 1001])
    def test_length_preserved(self, n):
        stream = random_stream(n, n)
        for mod in (QPSK, QAM16):
            out = phy.transmit(stream, ChannelConfig(mod, 6.0, seed=n))
            assert out.n_bits == n

    def test_origin_tie_breaks_to_zero_bits(self):
        block = phy.SymbolBlock(np.array([0.0 + 0.0j]), 2)
        out = phy.demodulate(block, QPSK)
        assert out.to_bits().tolist() == [0, 0]
        block = phy.SymbolBlock(np.array([0.0 + 0.0j]), 4)
        # equidistant from all four inner 16QAM points; smallest pattern is 0101
        out = phy.demodulate(block, QAM16)
        assert out.to_bits().tolist() == [0, 1, 0, 1]


class TestKernelsMatchOracles:
    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    @pytest.mark.parametrize("n", [0, 1, 3, 7, 8, 9, 1001])
    def test_modulate_matches_matmul_oracle(self, mod, n):
        stream = random_stream(n, 40 + n)
        assert same_symbols(phy.modulate(stream, mod), matmul_modulate(stream, mod))

    @pytest.mark.parametrize("snr", [-30.0, 0.0, 10.0, 40.0])
    def test_apply_awgn_matches_complex_sum_oracle(self, snr):
        block = phy.modulate(random_stream(4001, 41), QAM16)
        fast = phy.apply_awgn(block, snr, np.random.Generator(np.random.Philox(9)))
        slow = complex_sum_awgn(block, snr, np.random.Generator(np.random.Philox(9)))
        assert same_symbols(fast, slow)

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    @pytest.mark.parametrize("snr", [-3082.0, -40.0, -3.0, 5.0, 30.0, 3000.0])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 1001])
    def test_apply_awgn_matches_normal_pair_oracle(self, mod, snr, n):
        block = phy.modulate(random_stream(n, 45 + n), mod)
        fast = phy.apply_awgn(block, snr, np.random.Generator(np.random.Philox(n)))
        slow = normal_pair_awgn(block, snr, np.random.Generator(np.random.Philox(n)))
        assert same_symbols(fast, slow)

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    def test_apply_awgn_on_a_strided_block(self, mod):
        # every other symbol of a modulated block: the noise still lands on
        # the right parts, and the generator is drawn once per part
        whole = phy.modulate(random_stream(4002, 46), mod)
        block = phy.SymbolBlock(whole.symbols[::2], whole.bit_count // 2)
        assert not block.symbols.flags.c_contiguous
        rng, oracle_rng = np.random.Generator(np.random.Philox(5)), np.random.Generator(np.random.Philox(5))
        noisy = phy.apply_awgn(block, 3.0, rng)
        assert same_symbols(noisy, normal_pair_awgn(block, 3.0, oracle_rng))
        assert rng.standard_normal() == oracle_rng.standard_normal()
        assert phy.demodulate(noisy, mod).same_as(argmin_demodulate(noisy, mod))

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    @pytest.mark.parametrize("snr", [-20.0, 0.0, 6.0, 12.0, 30.0])
    def test_demodulate_matches_argmin_on_noisy_symbols(self, mod, snr):
        stream = random_stream(50_001, 42)
        rng = np.random.Generator(np.random.Philox(int(snr) + 100))
        block = phy.apply_awgn(phy.modulate(stream, mod), snr, rng)
        assert phy.demodulate(block, mod).same_as(argmin_demodulate(block, mod))

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    def test_demodulate_matches_argmin_on_boundary_symbols(self, mod):
        values = boundary_axis_values()
        re, im = np.meshgrid(values, values)
        symbols = np.empty(re.size, dtype=np.complex128)
        symbols.real, symbols.imag = re.ravel(), im.ravel()
        bps = phy.constellation(mod)[1]
        block = phy.SymbolBlock(symbols, symbols.size * bps)
        assert phy.demodulate(block, mod).same_as(argmin_demodulate(block, mod))

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    def test_demodulate_matches_argmin_on_tiny_steps_across_thresholds(self, mod):
        # exact ties and ties made by rounding in the 2-D distance sum
        t = 2.0 / math.sqrt(10.0)
        steps = np.concatenate([-np.logspace(-18, -6, 40), [0.0], np.logspace(-18, -6, 40)])
        axis = np.concatenate([steps, t + steps, -t + steps])
        other = np.array([0.0, 0.3, -0.9, 1e-12, 5.0, -1e4])
        re, im = np.meshgrid(axis, other)
        symbols = np.concatenate([re.ravel() + 1j * im.ravel(), im.ravel() + 1j * re.ravel()])
        block = phy.SymbolBlock(symbols, symbols.size * phy.constellation(mod)[1])
        assert phy.demodulate(block, mod).same_as(argmin_demodulate(block, mod))

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    def test_demodulate_when_every_symbol_is_near_a_threshold(self, mod):
        # at -200 dB every symbol is huge, so all of them take the min-distance rule
        block = phy.apply_awgn(phy.modulate(random_stream(2000, 43), mod), -200.0, np.random.default_rng(3))
        assert phy.demodulate(block, mod).same_as(argmin_demodulate(block, mod))

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    @pytest.mark.parametrize("odd", [np.nan, np.inf, -np.inf, 1e200, -1e200, 1e154])
    def test_demodulate_one_extreme_part_among_ordinary_symbols(self, mod, odd):
        # one part that is not finite, or whose square overflows, decides the
        # block's candidate bound; every other symbol must still match
        rng = np.random.Generator(np.random.Philox(47))
        ordinary = phy.apply_awgn(phy.modulate(random_stream(4000, 47), mod), 8.0, rng).symbols
        for where in (0, 1, ordinary.size // 2, ordinary.size - 1):
            for part in ("real", "imag"):
                symbols = ordinary.copy()
                setattr(symbols[where:where + 1], part, odd)
                block = phy.SymbolBlock(symbols, symbols.size * phy.constellation(mod)[1])
                assert phy.demodulate(block, mod).same_as(argmin_demodulate(block, mod)), (where, part)

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    def test_demodulate_mixed_extremes_among_near_ties(self, mod):
        # NaN, +-inf and +-1e200 parts scattered through one block of symbols
        # that sit on and next to the thresholds
        steps = np.concatenate([-np.logspace(-18, -6, 20), [0.0], np.logspace(-18, -6, 20)])
        t = 2.0 / math.sqrt(10.0)
        rng = np.random.default_rng(48)
        parts = rng.choice(np.concatenate([steps, t + steps, -t + steps]), size=(3000, 2))
        where = rng.choice(parts.size, size=40, replace=False)
        parts.reshape(-1)[where] = np.resize([np.nan, np.inf, -np.inf, 1e200, -1e200], where.size)
        block = phy.SymbolBlock(parts.view(np.complex128).reshape(-1), len(parts) * phy.constellation(mod)[1])
        assert phy.demodulate(block, mod).same_as(argmin_demodulate(block, mod))

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    def test_search_gets_exactly_the_suspect_symbols(self, monkeypatch, mod):
        # the block's candidate bound may only narrow where the margin test
        # runs, never which symbols it flags
        searched = []
        search = phy._min_distance_codes

        def recording(y, points):
            searched.append(y.copy())
            return search(y, points)

        monkeypatch.setattr(phy, "_min_distance_codes", recording)
        stream = random_stream(20_000, 49)
        rng = np.random.Generator(np.random.Philox(49))
        near = near_margin_symbols(mod, 5000, 49)
        blocks = [near, near[near.real > 0], np.concatenate([near, [np.nan, 0.5 + 0.5j]])]
        blocks += [phy.apply_awgn(phy.modulate(stream, mod), snr, rng).symbols for snr in (-200.0, -3.0, 5.0)]
        # the block's largest symbol has equal parts, a hair from a threshold,
        # so its own margin is the block's bound
        edge = 0.0 if mod == QPSK else 2.0 / math.sqrt(10.0)
        for factor in (1.0 - 1e-9, 1.0 + 1e-8):
            part = edge + (2.0 * edge * edge + 1.0) * phy._SLICER_MARGIN * factor
            blocks.append(np.array([complex(part, part), complex(part / 2, -part)]))
        for symbols in blocks:
            searched.clear()
            block = phy.SymbolBlock(symbols, symbols.size * phy.constellation(mod)[1])
            assert phy.demodulate(block, mod).same_as(argmin_demodulate(block, mod))
            want = symbols[suspect_symbols(symbols, mod)]
            got = np.concatenate(searched) if searched else np.empty(0, dtype=np.complex128)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert 0 < suspect_symbols(near, mod).size < near.size

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    @pytest.mark.parametrize("bit_count", [0, 3])
    def test_demodulate_empty_block(self, mod, bit_count):
        block = phy.SymbolBlock(np.empty(0, dtype=np.complex128), bit_count)
        out = phy.demodulate(block, mod)
        assert out.n_bits == 0 and out.data.size == 0

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    @pytest.mark.parametrize("bit_count", [0, 1, 5, 11, 12, 1000])
    def test_demodulate_bit_count_and_strided_input(self, mod, bit_count):
        # bit counts below, at and beyond what the symbols carry; a strided view
        symbols = np.random.default_rng(bit_count).normal(size=(6, 2)) @ np.array([1.0, 1j])
        block = phy.SymbolBlock(symbols[::2], bit_count)
        assert phy.demodulate(block, mod).same_as(argmin_demodulate(block, mod))


# -3082 dB pushes every symbol into the minimum-distance search
LINK_SNRS = [-3082.0, -20.0, 0.0, 10.0, 30.0, 3000.0]


def edge_bit_counts(block_bytes):
    """Bit counts on and next to the block boundaries of `transmit`, whole and
    with a partial last byte, up to several blocks."""
    counts = [0, 1, 7, 8, 9]
    for n_bytes in (block_bytes - 1, block_bytes, block_bytes + 1, 3 * block_bytes + 5):
        counts += [8 * n_bytes, 8 * n_bytes - 3]
    return sorted(c for c in set(counts) if c >= 0)


class TestBlockStreamedLink:
    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    @pytest.mark.parametrize("snr", LINK_SNRS)
    def test_matches_one_shot_oracle(self, mod, snr):
        for n in edge_bit_counts(phy._LINK_BLOCK_BYTES):
            stream = random_stream(n, n)
            for seed in (0, 2**64 - 1, n):
                channel = ChannelConfig(mod, snr, seed=seed)
                out = phy.transmit(stream, channel)
                assert out.same_as(one_shot_transmit(stream, channel)), (n, seed)

    @pytest.mark.parametrize("block_bytes", [1, 2, 3])
    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    @pytest.mark.parametrize("snr", [-20.0, 0.0, 10.0])
    def test_matches_one_shot_oracle_over_many_small_blocks(self, monkeypatch, block_bytes, mod, snr):
        monkeypatch.setattr(phy, "_LINK_BLOCK_BYTES", block_bytes)
        for n in edge_bit_counts(block_bytes) + [1001]:
            stream = random_stream(n, 50 + n)
            channel = ChannelConfig(mod, snr, seed=n)
            assert phy.transmit(stream, channel).same_as(one_shot_transmit(stream, channel)), n

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    @pytest.mark.parametrize("n", [1, 8 * 3 - 3, 8 * 3, 8 * 7 + 1])
    def test_blocks_partition_the_stream(self, monkeypatch, mod, n):
        # every block but the last is full and only the last carries pad bits,
        # so the generator is drawn for exactly the symbols of the one-shot form
        monkeypatch.setattr(phy, "_LINK_BLOCK_BYTES", 3)
        parts = []
        modulate = phy.modulate

        def recording_modulate(part, modulation):
            parts.append(part.copy())
            return modulate(part, modulation)

        monkeypatch.setattr(phy, "modulate", recording_modulate)
        stream = random_stream(n, n)
        phy.transmit(stream, ChannelConfig(mod, 10.0, seed=1))
        assert [p.n_bits for p in parts[:-1]] == [24] * (len(parts) - 1)
        assert 0 < parts[-1].n_bits <= 24
        assert sum(p.n_bits for p in parts) == n
        assert np.array_equal(np.concatenate([p.data for p in parts]), stream.data)

    @pytest.mark.parametrize("mod", [QPSK, QAM16])
    def test_peak_memory_is_output_plus_a_few_blocks(self, mod):
        # one pass over the whole stream peaks at 38-62 MiB; the blocks add
        # 3.0 (QPSK) and 3.3 (16QAM) blocks of symbols to the output
        stream = random_stream(1_572_864, 44)
        channel = ChannelConfig(mod, 10.0, seed=3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            phy.transmit(stream, channel)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        block_symbol_bytes = 16 * (8 * phy._LINK_BLOCK_BYTES // phy.constellation(mod)[1])
        assert peak <= stream.data.nbytes + 3.5 * block_symbol_bytes <= 2 * 2**20


class TestBerTheory:
    def test_qpsk_reference_value(self):
        # Q(sqrt(10)) at Es/N0 = 10 dB
        expected = 0.5 * math.erfc(math.sqrt(10.0) / math.sqrt(2.0))
        assert phy.ber_theoretical(QPSK, 10.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.83e-4, rel=0.01)

    def test_qam16_reference_value(self):
        expected = 0.75 * 0.5 * math.erfc(math.sqrt(0.2 * 10 ** 1.4) / math.sqrt(2.0))
        assert phy.ber_theoretical(QAM16, 14.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(9.4e-3, rel=0.01)

    def test_strictly_decreasing_in_snr(self):
        grid = np.arange(0.0, 30.5, 1.0)
        for mod in (QPSK, QAM16):
            vals = [phy.ber_theoretical(mod, s) for s in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_measured_matches_theory(self):
        n = 400_000
        for mod, snr, seed in [(QPSK, 6.0, 11), (QAM16, 12.0, 12)]:
            p = phy.ber_theoretical(mod, snr)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(measured_ber(n, mod, snr, seed) - p) < 3 * se

    def test_qpsk_not_worse_than_qam16(self):
        # same Es/N0: QPSK flips at most as often as 16QAM (3 sigma slack)
        n = 200_000
        for snr, seed in [(6.0, 21), (10.0, 22), (14.0, 23)]:
            q = measured_ber(n, QPSK, snr, seed)
            h = measured_ber(n, QAM16, snr, seed + 100)
            p = phy.ber_theoretical(QAM16, snr)
            assert q <= h + 3 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("snr", [3000.0, 3082.0, 3083.0, 4000.0, 1e300])
    def test_zero_past_float64_es_n0(self, snr):
        # 10**(snr/10) overflows from about 3082.5 dB; Q(inf) = 0
        for mod in (QPSK, QAM16):
            assert phy.ber_theoretical(mod, snr) == 0.0

    def test_unknown_modulation_rejected_at_any_snr(self):
        for snr in (10.0, 4000.0):
            with pytest.raises(ValueError, match="unknown modulation"):
                phy.ber_theoretical("fm", snr)


def test_channel_config_validation():
    with pytest.raises(ValueError, match="unknown modulation"):
        ChannelConfig("fm", 10.0, seed=1)
    with pytest.raises(ValueError, match="finite"):
        ChannelConfig(QPSK, float("inf"), seed=1)
    with pytest.raises(ValueError, match="64-bit"):
        ChannelConfig(QPSK, 10.0, seed=-3)
    for seed in (1.5, True):  # no float or bool reaches SeedSequence
        with pytest.raises(ValueError, match="'seed' must be int"):
            ChannelConfig(QPSK, 10.0, seed=seed)
    with pytest.raises(ValueError, match="snr_db"):
        ChannelConfig(QPSK, -4000.0, seed=1)
    with pytest.raises(ValueError, match="snr_db"):
        ChannelConfig(QAM16, -3083.0)
    ChannelConfig(QPSK, -3082.0)  # noise power still fits float64


@pytest.mark.parametrize("snr", ["10", None, True, 10 + 0j, 10**400], ids=["str", "none", "bool", "complex", "huge-int"])
def test_channel_config_snr_must_be_a_real_number(snr):
    with pytest.raises(ConfigError, match="'snr_db' must be float"):
        ChannelConfig(QPSK, snr)


def test_channel_config_stores_snr_as_a_plain_float():
    for snr in (10, np.int64(10), np.float32(10.0), 10.0):
        channel = ChannelConfig(QAM16, snr)
        assert type(channel.snr_db) is float and channel.snr_db == 10.0


def test_package_runs_with_scipy_blocked(tmp_path):
    # splitseg never imports SciPy: with any import of it failing, the package,
    # the closed-form BER and the report command all still work
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"input_size": 128, "ppm_bins": [1, 2]}, "channel": {}}))
    out = tmp_path / "out"
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import splitseg; from splitseg import cli, phy\n"
        "for mod in phy.MODULATIONS:\n"
        "    assert 0.0 < phy.ber_theoretical(mod, 10.0) < 0.5\n"
        f"sys.exit(cli.main(['report', '--config', {str(config)!r}, '--out', {str(out)!r}]))\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, stdout=subprocess.DEVNULL)
    assert {p.name for p in out.iterdir()} == {
        "rate_report.json", "compute_report.json", "bits_per_image.svg", "tx_macs.svg",
    }
