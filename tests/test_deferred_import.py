"""scipy.optimize loads only when an assignment runs.

Only the permutation orbits (S, and SxSE through the registration bound) need
an assignment solver; every other command must leave scipy.optimize and the
scipy.linalg and scipy.sparse it pulls in unloaded.  Each check needs a fresh
interpreter, because any earlier test in this process may have loaded them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from invarcert.geometry import load_points_csv

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse")

SCRIPT = """
import json, sys
from invarcert.cli import main

HEAVY = {heavy!r}
d = sys.argv[1]
clean, perturbed = d + "/clean.csv", d + "/perturbed.csv"
pair = ["--clean", clean, "--perturbed", perturbed]
mc = ["--n2", "200", "--n3", "200", "--seed", "1"]


def loaded():
    return [m for m in HEAVY if m in sys.modules]


seen = {{"import": loaded()}}


def run(name, argv):
    assert main(argv) == 0, name
    seen[name] = loaded()


run("fixture", ["fixture", "--scenario", "random", "--norm-x", "3", "--norm-delta", "3",
    "--n-points", "8", "--seed", "3", "--out-clean", clean, "--out-perturbed", perturbed,
    "--out", d + "/fixture.json"])
run("certify", ["certify", "--group", "SE", *pair, "--sigma", "0.5", "--p-lower", "0.9",
    "--p-upper", "0.05", "--method", "both", "--multiclass", *mc, "--out", d + "/certify.json"])
run("pmin-grid", ["pmin-grid", "--group", "SO2", "--norm-x", "1", "--norm-delta", "0.5",
    "--sigma", "0.5", "--resolution", "2", *mc, "--out-csv", d + "/grid.csv",
    "--out-json", d + "/grid.json"])
run("smooth-predict", ["smooth-predict", "--classifier", "norm", "--input", clean,
    "--sigma", "0.5", "--n1", "200", "--seed", "1", "--out", d + "/smooth.json"])
run("project", ["project", "--group", "S", *pair, "--out", d + "/project.json"])
print(json.dumps(seen))
"""


def test_only_permutation_projection_loads_the_solver(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(heavy=HEAVY), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    for command in ("import", "fixture", "certify", "pmin-grid", "smooth-predict"):
        assert seen[command] == [], command
    assert "scipy.optimize" in seen["project"]

    # the deferred solver matched the rows as scipy does on the same cost
    # (the fixture is perturbed enough for that not to be the identity)
    x = load_points_csv(str(tmp_path / "clean.csv")).data
    xp = load_points_csv(str(tmp_path / "perturbed.csv")).data
    cost = np.sum((xp[:, None, :] - x[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    expected = np.empty(len(x), dtype=int)
    expected[cols] = rows
    assert not np.array_equal(expected, np.arange(len(x)))
    doc = json.loads((tmp_path / "project.json").read_text())
    assert doc["results"]["transform"]["permutation"] == expected.tolist()
