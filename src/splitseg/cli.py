"""Command line front end.

Subcommands: sweep (run the SNR sweep and write CSVs), report (rate and
compute reports as JSON), plot (render sweep CSVs to SVG), gen-data (write a
synthetic PPM/PGM dataset). The SPLITSEG_OUT_DIR environment variable
overrides every --out (sweep, report and gen-data).

Exit codes: 0 ok, 1 runtime failure, 2 usage error, 3 missing file,
4 invalid config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import atomic, dataio, experiments, metrics, plotting
from .experiments import ConfigError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_CONFIG = 4


def _out_dir(args) -> Path:
    out = os.environ.get("SPLITSEG_OUT_DIR") or args.out
    d = Path(out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _cmd_sweep(args) -> int:
    spec = experiments.load_spec(args.config)
    if args.seed is not None:
        spec = dataclasses.replace(spec, master_seed=args.seed)
    out = _out_dir(args)
    results = experiments.sweep(spec, workers=args.workers)
    for result in results:
        csv_path = out / f"sweep_{result.modulation}.csv"
        experiments.write_csv(result, csv_path)
        meta_path = out / f"sweep_{result.modulation}.meta.json"
        atomic.write_text_atomic(meta_path, json.dumps(result.metadata, indent=2) + "\n")
        print(csv_path)
        print(meta_path)
    return EXIT_OK


def _cmd_report(args) -> int:
    spec = experiments.load_spec(args.config)
    try:
        rate = metrics.rate_report(spec.model, spec.quant_bits, spec.frames_per_second)
        compute = metrics.compute_report(spec.model)
    except OverflowError as exc:  # counts beyond float64, e.g. input_size 64 * 2**1100
        raise ConfigError(f"model too large to report: {exc}") from exc
    payload = {"rate": rate.to_dict(), "compute": compute.to_dict()}
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out is not None:
        out = _out_dir(args)
        atomic.write_text_atomic(out / "rate_report.json", rate.to_json() + "\n")
        atomic.write_text_atomic(out / "compute_report.json", compute.to_json() + "\n")
        # both reports key their values by pipeline in PIPELINE_TABLE order
        for name, values, ylabel in (("bits_per_image", rate.bits_per_image, "bits per image"),
                                     ("tx_macs", compute.tx_macs, "transmitter MACs")):
            plotting.render_bars(values.items(), out / f"{name}.svg", ylabel=ylabel)
    return EXIT_OK


def _cmd_plot(args) -> int:
    results = []
    for csv_path in args.csv:
        result = experiments.read_csv(csv_path)
        result.modulation = Path(csv_path).stem
        results.append(result)
    plotting.render_plot(results, args.output)
    print(args.output)
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    out = _out_dir(args)
    pairs = dataio.generate_synthetic(args.num, args.classes, args.size, args.size, args.seed)
    written = dataio.write_dataset(out, pairs)
    print(f"wrote {len(written)} files to {out}")
    return EXIT_OK


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi] (no upper bound when hi is None)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


positive_int = _int_in(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splitseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the SNR sweep and write CSV results")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=positive_int, default=1, help="parallel worker processes")
    # the config's master_seed rule: np.random.SeedSequence takes [0, 2**64)
    p.add_argument("--seed", type=_int_in(0, 2**64 - 1), default=None, help="override the config master seed")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="emit rate and compute reports as JSON")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="also write report files and bar charts here")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("plot", help="render sweep CSVs to an SVG line chart")
    p.add_argument("csv", nargs="+", help="sweep CSV files")
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("gen-data", help="write a synthetic PPM/PGM dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--num", type=positive_int, default=50, help="number of images")
    # labels are written as 8-bit PGM values
    p.add_argument("--classes", type=_int_in(2, 256), default=8, help="number of classes")
    # smaller scenes leave no radius for their regions: size // 3 must exceed 2
    p.add_argument("--size", type=_int_in(9), default=256, help="square image size")
    p.add_argument("--seed", type=_int_in(0), default=20240917, help="generator seed")
    p.set_defaults(func=_cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # RuntimeError: a failed sweep check or a broken worker pool; MemoryError: a model too large
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
