"""Byte-identity contract: structured payloads of the reference runs.

The files under ``tests/artifacts/golden/`` hold the ``payload`` block of
``--format structured`` output (canonical JSON, sorted keys); provenance and
timing are outside the contract and are not recorded. To re-record after an
intended change of output, run ``python tests/test_golden.py`` from the repo
root and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fsglab.cli import main
from fsglab.fixtures import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "artifacts" / "golden"
CONFIGS = ROOT / "configs"

RUNS = {
    **{f"report_{fid}": ["report", fid] for fid in sorted(FIXTURES)},
    **{
        f"analyze_{name}": ["analyze", "--config", str(CONFIGS / f"{name}.json"), "--seed", "0"]
        for name in ("example1_greedy", "hybrid_window", "worked_custom", "toy_attack_lfsr")
    },
    "optimize_optimize_step_b": [
        "optimize", "--config", str(CONFIGS / "optimize_step_b.json"), "--seed", "0"
    ],
}


def payload_text(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "structured"]) == 0
    doc = json.loads(out.getvalue())
    return json.dumps(doc["payload"], sort_keys=True, indent=2) + "\n"


def test_golden_set_is_complete():
    assert len(RUNS) == 16
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_payload_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert payload_text(RUNS[name]) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        (GOLDEN_DIR / f"{name}.json").write_text(payload_text(argv))
        print(f"recorded {name}")
