#!/usr/bin/env python3
"""Sweep benchmark for splitseg.

    python3 bench/run.py --workload sweep_desk --seed 0 --seconds 20 --trace 0

Runs one workload (or `all`) through the public `splitseg.experiments.sweep`
API in this process, repeating the sweep until `--seconds` have passed, and
checks every sweep's output. With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced sweeps and
reports per-layer metrics from spans recorded around splitseg's layer
functions (see tracing.py). Timed end-to-end metrics are in reference
seconds, corrected for the machine's speed drift by a calibration kernel
(see calibrate.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Full records and span files
go to bench/out/. METRICS.md describes every metric and workload.

The package is imported from src/ of the checkout this file sits in; the
benchmark fails without printing a result when that is missing.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and everything it starts: the default
# thread pool on a small machine makes sweep times vary several-fold.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
from calibrate import REFERENCE_S
from layers import PER_LAYER_UNITS, per_layer_metrics, print_tables
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
SETUP_SAMPLES = 5
DESK_GRID = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full_scale: bool
    modulations: tuple[str, ...]
    snr_db: tuple[float, ...]
    pipelines: tuple[str, ...]
    num_images: int
    workers: int

    @property
    def trials(self) -> int:
        return len(self.modulations) * len(self.snr_db) * self.num_images


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_desk",
                 "desk fidelity sweep, full_tx+split: model kernels and per-trial recompute dominate",
                 False, ("qpsk", "16qam"), DESK_GRID, ("full_tx", "split"), 4, 1),
        Workload("link_traditional",
                 "raw 24 bpp image over the link: demodulate and AWGN dominate, hoisting cannot help",
                 False, ("qpsk", "16qam"), DESK_GRID, ("traditional",), 4, 1),
        Workload("full_scale_split",
                 "1024x1024 split at two SNRs: large tensors, resize and conv dominate",
                 True, ("qpsk",), (12.0, 20.0), ("split",), 1, 1),
        Workload("sweep_desk_2w",
                 "sweep_desk on a 2-worker process pool: per-worker context rebuild and scheduling",
                 False, ("qpsk", "16qam"), DESK_GRID, ("full_tx", "split"), 4, 2),
    )
}

END_TO_END_UNITS = {
    "trials_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fidelity_miou": "miou",
}


# ---------------------------------------------------------------------------
# loading the package and building inputs
# ---------------------------------------------------------------------------

def load_package():
    """Import splitseg from this checkout's src/, never from elsewhere."""
    if not (SRC / "splitseg" / "__init__.py").is_file():
        raise SystemExit(f"error: no splitseg package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import splitseg
    from splitseg import codec, dataio, experiments, metrics, model, phy, tensor_ops  # noqa: F401

    if Path(splitseg.__file__).resolve().parent != SRC / "splitseg":
        raise SystemExit(f"error: splitseg imported from {splitseg.__file__}, not {SRC}")
    return splitseg


def make_spec(pkg, workload: Workload, seed: int):
    """The workload's ExperimentSpec; `seed` drives the images and the noise."""
    cfg = pkg.model.ModelConfig.full_scale() if workload.full_scale else pkg.model.ModelConfig()
    return pkg.experiments.ExperimentSpec(
        model=cfg,
        modulations=workload.modulations,
        snr_db=workload.snr_db,
        pipelines=workload.pipelines,
        num_images=workload.num_images,
        master_seed=seed,
        dataset="synthetic",
        reference_mode="noiseless_output",
        quant_bits=8,
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass
class SweepCheck:
    problems: list[str]
    csv_sha256: str = ""
    ext_sha256: str = ""
    fidelity: float = float("nan")


def check_sweep(pkg, spec, results, scratch: Path) -> SweepCheck:
    """Check one sweep's results; digest the CSVs that write_csv produces."""
    E, metrics = pkg.experiments, pkg.metrics
    problems = []
    mods = [r.modulation for r in results]
    if mods != list(spec.modulations):
        return SweepCheck([f"modulations {mods} != {list(spec.modulations)}"])
    csv_hash, ext_hash = hashlib.sha256(), hashlib.sha256()
    medians = []
    for r in results:
        for p in spec.pipelines:
            want = float(metrics.bits_per_image(p, spec.model, spec.quant_bits))
            got = r.bits_per_image.get(p)
            if got != want:
                problems.append(f"{r.modulation}/{p}: bits_per_image {got} != {want}")
            for kind, series in (("median", r.miou_median.get(p)), ("mean", r.miou_mean.get(p))):
                if series is None or len(series) != len(spec.snr_db):
                    problems.append(f"{r.modulation}/{p}: {kind} mIoU series missing or short")
                    continue
                bad = [v for v in series if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
                if bad:
                    problems.append(f"{r.modulation}/{p}: {kind} mIoU outside [0, 1]: {bad}")
            medians.extend(r.miou_median.get(p) or [])
        path = scratch / f"sweep_{r.modulation}.csv"
        E.write_csv(r, path)
        csv_hash.update(path.read_bytes())
        ext_hash.update(path.with_name(path.stem + "_ext.csv").read_bytes())
    fidelity = statistics.fmean(medians) if medians else float("nan")
    return SweepCheck(problems, csv_hash.hexdigest(), ext_hash.hexdigest(), fidelity)


def pinned_digests(workload: str, seed: int) -> dict | None:
    table = json.loads(DIGESTS.read_text())
    return table.get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class SweepRun:
    wall_s: float
    traced: bool
    ok: bool
    check: SweepCheck | None = None
    trace: dict | None = None
    cal_s: float = REFERENCE_S

    @property
    def ref_s(self) -> float:
        """Wall time in reference-machine seconds (see calibrate.py)."""
        return self.wall_s * REFERENCE_S / self.cal_s


def _sweep(pkg, spec, workers: int, tracer):
    """One sweep; when traced, also the index of the span that encloses it."""
    if tracer is None:
        return pkg.experiments.sweep(spec, workers=workers), None
    with tracer:
        root = tracer.open_span("sweep")
        try:
            return pkg.experiments.sweep(spec, workers=workers), root
        finally:
            tracer.close_span(root)


def run_sweeps(pkg, workload: Workload, spec, seconds: float,
               trace: bool) -> tuple[list[SweepRun], float]:
    """Sweep until `seconds` have passed; with `trace`, every second sweep is traced.

    The machine-speed probe runs after each sweep; a sweep's calibration
    time is the mean of the probes on either side of it. Returns the sweeps
    and the peak RSS, read after the first sweep and before any probe.
    """
    runs: list[SweepRun] = []
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        scratch = Path(tmp)
        began = perf_counter()
        cals: list[float] = []
        rss = 0.0
        while len(runs) < (2 if trace else 1) or perf_counter() - began < seconds:
            tracer = Tracer(pkg, scratch / "spool") if trace and len(runs) % 2 == 1 else None
            t0 = perf_counter()
            error = None
            try:
                results, root = _sweep(pkg, spec, workload.workers, tracer)
            except Exception:  # a failing sweep is counted, not fatal
                error = traceback.format_exc()
            wall = perf_counter() - t0
            rss = rss or peak_rss_mb()
            cals.append(calibrate.measure())
            cal_s = statistics.fmean(cals[-2:])
            if error is not None:
                print(f"sweep raised:\n{error}", file=sys.stderr)
                runs.append(SweepRun(wall, tracer is not None, False, cal_s=cal_s))
                continue
            check = check_sweep(pkg, spec, results, scratch)
            for problem in check.problems:
                print(f"check failed: {problem}", file=sys.stderr)
            sweep_run = SweepRun(wall, tracer is not None, not check.problems, check, cal_s=cal_s)
            if tracer is not None:
                sweep_run.trace = {
                    "root": root,
                    "processes": [tracer.spans] + tracer.collect_workers(),
                }
            runs.append(sweep_run)
    return runs, rss


SETUP_PROBE = "--setup-probe"


def setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_s: import and build the spec, then say so."""
    pkg = load_package()
    make_spec(pkg, WORKLOADS[workload], seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, samples: int = SETUP_SAMPLES) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh benchmark process to its first sweep call.

    Returns the wall times and the calibration time around each (the mean
    of the probes before and after it).
    """
    times, cals = [], [calibrate.measure()]
    cmd = [sys.executable, str(Path(__file__).resolve()), SETUP_PROBE, workload, str(seed)]
    for _ in range(samples):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        cals.append(calibrate.measure())
    return times, [(a + b) / 2 for a, b in zip(cals, cals[1:])]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child reaped so far (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workers: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "workers": workers,
    }


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def _tps(runs: list[SweepRun], trials: int, reference: bool = True) -> float:
    """Median trials per second of the successful sweeps, in reference or wall seconds."""
    rates = [trials / (r.ref_s if reference else r.wall_s) for r in runs if r.ok]
    return statistics.median(rates) if rates else 0.0


def tally(trials: int, runs: list[SweepRun], pinned: dict | None) -> tuple[int, int, tuple[str, str]]:
    """(attempted, failed, CSV digests) over a run's sweeps.

    A sweep that raised or failed its check fails its own trials. Sweeps of
    one spec that disagree, or digests that differ from the pinned ones,
    fail every trial of the run.
    """
    attempted = trials * len(runs)
    failed = trials * sum(not r.ok for r in runs)
    digests = sorted({(r.check.csv_sha256, r.check.ext_sha256) for r in runs if r.ok})
    if len(digests) > 1:
        print(f"check failed: sweeps of one spec gave {len(digests)} different CSVs", file=sys.stderr)
        failed = attempted
    if pinned and digests and digests[0] != (pinned["csv_sha256"], pinned["ext_sha256"]):
        print(f"check failed: CSV digests {digests[0]} != pinned {pinned}", file=sys.stderr)
        failed = attempted
    return attempted, failed, digests[0] if digests else ("", "")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    pkg = load_package()
    spec = make_spec(pkg, workload, seed)
    runs, rss = run_sweeps(pkg, workload, spec, seconds, trace)
    setup, setup_cals = measure_setup(workload.name, seed)

    pinned = pinned_digests(workload.name, seed)
    attempted, failed, (csv_sha, ext_sha) = tally(workload.trials, runs, pinned)
    checked = [r.check for r in runs if r.ok]

    untraced = [r for r in runs if not r.traced]
    e2e = {
        "trials_per_ref_s": _tps(untraced, workload.trials),
        "setup_s": statistics.median([t * REFERENCE_S / c for t, c in zip(setup, setup_cals)]),
        "peak_rss_mb": rss,
        "fidelity_miou": checked[0].fidelity if checked else 0.0,
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(workload.workers),
        "trials_per_sweep": workload.trials,
        "sweep_wall_s": [r.wall_s for r in runs],
        "sweep_cal_s": [r.cal_s for r in runs],
        "sweep_traced": [r.traced for r in runs],
        "trials_per_wall_s": _tps(untraced, workload.trials, reference=False),
        "setup_samples_s": setup,
        "setup_cal_s": setup_cals,
        "setup_wall_s": statistics.median(setup),
        "csv_sha256": csv_sha,
        "ext_sha256": ext_sha,
        "digest_pinned": bool(pinned),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "end_to_end": e2e,
    }
    if trace:
        traced = [r for r in runs if r.traced and r.trace]
        layer, tables = per_layer_metrics(pkg, spec, [r.trace for r in traced])
        traced_tps, untraced_tps = _tps(traced, workload.trials), e2e["trials_per_ref_s"]
        layer["trace.trials_per_ref_s"] = traced_tps
        layer["trace.untraced_trials_per_ref_s"] = untraced_tps
        layer["trace.overhead_share"] = 1.0 - traced_tps / untraced_tps if untraced_tps else 0.0
        record["per_layer"] = layer
        record["tables"] = tables
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
        spans_path.write_text(json.dumps([r.trace for r in traced]))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"sweeps {len(record['sweep_wall_s'])}  trials/sweep {record['trials_per_sweep']}")
    print("environment " + json.dumps(record["environment"]))
    print(f"csv_sha256 {record['csv_sha256']}")
    print(f"ext_sha256 {record['ext_sha256']}  (pinned for this seed: {record['digest_pinned']})")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<40} {value:>14.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_share':<40} {record['failed_share']:>14.6g} share")
    print(f"  {'trials_per_wall_s':<40} {record['trials_per_wall_s']:>14.6g} 1/s")
    print(f"  {'setup_wall_s':<40} {record['setup_wall_s']:>14.6g} s")
    print(f"  calibration s (reference {REFERENCE_S}): sweeps "
          + " ".join(f"{c:.3f}" for c in record["sweep_cal_s"]))
    if "per_layer" in record:
        print_tables(record["tables"])
        for name, value in record["per_layer"].items():
            print(f"  {name:<40} {value:>14.6g} {PER_LAYER_UNITS[name]}")


def result_line(record: dict) -> dict:
    if "per_layer" in record:
        values, units = record["per_layer"], PER_LAYER_UNITS
    else:
        values, units = record["end_to_end"], END_TO_END_UNITS
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [SETUP_PROBE]:
        setup_probe(argv[1], int(argv[2]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(parents=True, exist_ok=True)
        out = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print_record(record)
        lines.append(result_line(record))
        if len(names) > 1:
            print(json.dumps(lines[-1]))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{n}.{k}": v for n, line in zip(names, lines) for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
