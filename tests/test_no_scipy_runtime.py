"""scipy is a test-only dependency: nothing the library runs imports it.

A fresh interpreter imports the autotuner, the server and the fleet, runs one
cold model-priced tune and one hybrid tune (whose re-measured shortlist goes
through ``spearman_rho``) and must end with no ``scipy*`` module loaded.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import importlib, json, sys
import repro.autotune, repro.service, repro.fleet
from repro.autotune import SpaceOptions, autotune
from repro.kernels import get_kernel

session = importlib.import_module("repro.autotune.session")
ranked = []
rank = session.spearman_rho
session.spearman_rho = lambda xs, ys: ranked.append(len(xs)) or rank(xs, ys)

# two blocks of 32 columns leave room for 16 threads: a baseline plus two tiles to rank
space = SpaceOptions(thread_counts=(16,), block_counts=(2,), tile_candidates_per_geometry=2)
program = get_kernel("jacobi1d").build(size=64)
model = autotune(program, cache=None, space_options=space, backend="model:")
hybrid = autotune(
    program, cache=None, space_options=space, backend="hybrid:model>measure-py?top=2"
)
print(json.dumps({
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "winners": [model.best.configuration.key(), hybrid.best.configuration.key()],
    "ranked": ranked,
}))
"""


def test_cold_tunes_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    completed = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    assert outcome["scipy"] == []
    assert all(outcome["winners"])
    assert outcome["ranked"], "the hybrid tune never correlated model and measurement"


def test_no_source_file_imports_scipy():
    pattern = re.compile(r"^\s*(import\s+scipy|from\s+scipy[\s.])", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
