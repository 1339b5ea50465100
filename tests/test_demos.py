"""Every narrative walkthrough in demos/ runs to completion and prints
exactly the text it printed when its digest was recorded."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. A change that alters what a demo prints
# must say why and record the new digest here.
STDOUT_SHA256 = {
    "01_categories_and_functors.py": "830f1654ec7a555236994f1757514f40a54b3d5c8c58ccdad7587482c271a01a",
    "02_graph_of_a_functor.py": "581fb562609f2620602cdcdefa02cd0bbe2b30ce3117d0d616c6d78321c0c8d9",
    "03_actions_and_groupoids.py": "a7857c5dab284e1553f00d3d2682e21ca960eb2864c5c0180cf3bfe6e4cb011d",
    "04_grothendieck_round_trip.py": "6b5f060c57c9ab4377dc076501cc6140de09d687ed391e6f87967193a870ed7c",
    "05_dsl_and_cli.py": "5a3399d59622796f355a157ce7bec6efcfc5dcc20642d449c2d7bc92553d59ad",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.name]
