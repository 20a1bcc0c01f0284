#!/usr/bin/env python3
"""Write bench/digests.json: the CSV digests of one sweep per workload and seed.

    python3 bench/pin_digests.py --seeds 0-9

Run it on the code whose output the benchmark should hold later code to.
A run of `run.py` on a pinned seed fails every trial when its digests differ.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=[run.DEFAULT_SEED])
    args = parser.parse_args()
    pkg = run.load_package()
    table: dict[str, dict[str, dict[str, str]]] = {}
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="tmp-") as tmp:
        for name, workload in run.WORKLOADS.items():
            for seed in args.seeds:
                spec = run.make_spec(pkg, workload, seed)
                results = pkg.experiments.sweep(spec, workers=workload.workers)
                check = run.check_sweep(pkg, spec, results, Path(tmp))
                if check.problems:
                    print(f"{name} seed {seed}: {check.problems}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = {
                    "csv_sha256": check.csv_sha256, "ext_sha256": check.ext_sha256,
                }
                print(f"{name} seed {seed}: {check.csv_sha256}", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
