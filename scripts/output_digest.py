#!/usr/bin/env python3
"""Digests of the run outputs on the benchmark workloads.

For seeds 1 and 7 of each workload in `perfbench/workloads.py`, runs
`intelgp.run` on the generated series and prints one line:

  <workload> seed=<seed> steps=<sha256> metrics=<sha256>

`steps` is the sha256 of the `steps.jsonl` bytes and `metrics` that of
the `metrics.json` bytes which `intelgp run --out` writes for the run.
Two checkouts whose lines are equal give byte-identical outputs on these
streams.  The package is imported from the checkout's own `src/`.

Usage:  python3 scripts/output_digest.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from intelgp import run  # noqa: E402
from intelgp.harness import run_files  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 7)


def digests(config, series, normalization: str) -> tuple[str, str]:
    """The sha256 of steps.jsonl and of metrics.json for one run."""
    files = run_files(run(config, series, normalization=normalization))
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in files.values())


def main() -> None:
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            steps, metrics = digests(
                workload.config, workload.series(seed), workload.normalization
            )
            print(f"{name} seed={seed} steps={steps} metrics={metrics}", flush=True)


if __name__ == "__main__":
    main()
