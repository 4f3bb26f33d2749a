"""Pinned demo output: each script in `demos/` prints the same bytes.

Every demo runs in a fresh interpreter with this checkout's `src/` first on
its import path, and the SHA-256 of its stdout is compared to a pinned
digest.  A refactor that claims to keep behaviour must keep these digests.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo file name -> SHA-256 of its stdout
DEMO_DIGESTS = {
    "01_generate_networks.py":
        "18824aa431e659975cd0713aa6ad7beb14d817740e26ed6862dae9b81e3d0021",
    "02_priority_node_mapping.py":
        "c4c3b568f475c07ace1d3d485c6bd072998b18f705cb101f00a57a446fa8daa4",
    "03_swarm_embedding.py":
        "9b0267e1ae9d6a8c0999f7ce7901fb80c962256f45ba867cdc659e4142c6f711",
    "04_full_simulation.py":
        "ee796b0b9a9062af05b1d5a25e2dfe5f3221c194ee1003b6b53c0239e1ece039",
    "05_strategy_comparison.py":
        "e5c7a3271cddc251162c1ad33cb36cfa0d078be17d6aeef505a0ede2681bfe08",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_digest(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
