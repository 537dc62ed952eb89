#!/usr/bin/env python3
"""Fetch the two public benchmark datasets into data/.

  well_log.csv   4,050 nuclear-magnetic-response measurements from well
                 drilling, the classic change-point series (via the Turing
                 Change Point Dataset repository).
  cpu_usage.csv  CPU utilization of a server in an AWS east-coast data
                 center (Numenta Anomaly Benchmark, realAWSCloudwatch
                 ec2_cpu_utilization_ac20cd); the regime shifts near row
                 2971.

Both files are written as `row,value` CSV, one observation per row in
stream order.  Needs network access; the acceptance tests that consume
these files skip when they are absent.

Usage:  python3 scripts/fetch_datasets.py [--dest data/]
"""

import argparse
import csv
import io
import json
import sys
import urllib.request
from pathlib import Path

WELL_LOG_SOURCES = [
    # Turing Change Point Dataset JSON schema: series[0].raw holds the values
    "https://raw.githubusercontent.com/alan-turing-institute/TCPD/master/datasets/well_log/well_log.json",
]

CPU_USAGE_SOURCES = [
    "https://raw.githubusercontent.com/numenta/NAB/master/data/realAWSCloudwatch/ec2_cpu_utilization_ac20cd.csv",
]


def download(url: str, timeout: float = 60.0) -> bytes:
    print(f"fetching {url}")
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def parse_well_log(raw: bytes) -> list:
    doc = json.loads(raw)
    series = doc["series"][0]["raw"]
    return [float(v) for v in series]


def parse_nab_csv(raw: bytes) -> list:
    reader = csv.DictReader(io.StringIO(raw.decode()))
    if "value" not in (reader.fieldnames or []):
        raise ValueError(f"expected a 'value' column, got {reader.fieldnames}")
    return [float(row["value"]) for row in reader]


def write_series(values: list, path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "value"])
        for i, v in enumerate(values):
            writer.writerow([i, repr(v)])
    print(f"wrote {path} ({len(values)} observations)")


def fetch(sources, parser, dest: Path, expected_length=None) -> bool:
    for url in sources:
        try:
            values = parser(download(url))
        except Exception as exc:
            print(f"  failed: {exc}", file=sys.stderr)
            continue
        if expected_length is not None and len(values) != expected_length:
            print(
                f"  warning: expected {expected_length} observations, "
                f"got {len(values)}",
                file=sys.stderr,
            )
        write_series(values, dest)
        return True
    print(f"could not fetch {dest.name} from any source", file=sys.stderr)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dest",
        default=Path(__file__).resolve().parent.parent / "data",
        type=Path,
    )
    args = parser.parse_args()
    args.dest.mkdir(parents=True, exist_ok=True)
    ok = fetch(
        WELL_LOG_SOURCES, parse_well_log, args.dest / "well_log.csv",
        expected_length=4050,
    )
    ok &= fetch(CPU_USAGE_SOURCES, parse_nab_csv, args.dest / "cpu_usage.csv")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
