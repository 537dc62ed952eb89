"""Write perfbench/reference.json: the verdict counts and forecast quality
of `intelgp.run` on every workload for every seed in
`measure.REFERENCE_SEEDS`, one row per stream of the seed's quality set
(`"5"` for stream 0 of seed 5, `"5.1"` for its stream 1).  The
benchmark's correctness gate compares each run against these values, and
refuses a table that lacks any of them.

    python3 perfbench/make_reference.py

Regenerate only with a change that is meant to alter the program's
outputs, and say so where that change is described.
"""

from __future__ import annotations

import json
from collections import Counter

from run import bootstrap


def main() -> None:
    bootstrap()
    from intelgp import run
    from measure import QUALITY_RTOL, REFERENCE, REFERENCE_SEEDS, reference_key
    from workloads import WORKLOADS

    table: dict[str, dict[str, dict]] = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for seed in REFERENCE_SEEDS:
            for stream in range(workload.quality_streams):
                series = workload.series(seed, stream)
                result = run(workload.config, series, normalization=workload.normalization)
                counts = Counter(r["verdict"] for r in result.records)
                key = reference_key(seed, stream)
                table[name][key] = {
                    "inlier": counts["inlier"],
                    "outlier": counts["outlier"],
                    "change_point": counts["change_point"],
                    "nll": result.metrics.nll,
                    "mae": result.metrics.mae,
                    "mse": result.metrics.mse,
                }
                print(name, key, table[name][key], flush=True)
    about = ("intelgp.run outputs per workload and seed; verdict counts must "
             f"match exactly, nll/mae/mse within a relative {QUALITY_RTOL:g}")
    REFERENCE.write_text(format_table(about, table))


def format_table(about: str, table: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name, seeds in table.items():
        rows = ",\n".join(f'   "{seed}": {json.dumps(row)}' for seed, row in seeds.items())
        blocks.append(f'  "{name}": {{\n{rows}\n  }}')
    body = ",\n".join(blocks)
    return f'{{\n "about": {json.dumps(about)},\n "workloads": {{\n{body}\n }}\n}}\n'


if __name__ == "__main__":
    main()
