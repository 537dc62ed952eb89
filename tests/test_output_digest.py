"""The output-digest script (scripts/output_digest.py) hashes the bytes
that `intelgp run --out` writes."""

import hashlib
import importlib.util
from pathlib import Path

from conftest import regime_change_series

from intelgp import EngineConfig, VariantFactors
from intelgp.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"

spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def test_digests_are_those_of_the_files_intelgp_run_writes(tmp_path):
    series, _ = regime_change_series(seed=8, n_smooth=160, n_rough=120)
    path = tmp_path / "series.csv"
    path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in series))
    out = tmp_path / "out"
    assert main(["run", "--input", str(path), "--init-count", "80", "--factors", "f=0.2",
                 "--out", str(out)]) == 0
    written = [(out / name).read_bytes() for name in ("steps.jsonl", "metrics.json")]
    config = EngineConfig(init_count=80, factors=VariantFactors((1.0, 0.2)))
    digests = output_digest.digests(config, series, "init")
    assert digests == tuple(hashlib.sha256(data).hexdigest() for data in written)
