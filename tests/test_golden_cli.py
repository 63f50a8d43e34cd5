"""Golden outputs of every subcommand: each JSON document and CSV grid must
match the committed copy byte for byte, apart from ``generated_at``.

The expected files under ``tests/golden/<case>/`` were written by the same
commands.  Every case runs in a fresh working directory with relative file
names, so the paths recorded in the manifests are stable.
"""

import re
from pathlib import Path

import pytest

from invarcert.cli import main

GOLDEN = Path(__file__).parent / "golden"

# inputs shared by the cases; each writes its two CSVs into the working dir
INPUTS = [
    [
        "fixture", "--scenario", "scaling", "--norm-x", "0.01", "--norm-delta", "0.7",
        "--n-points", "8", "--dim", "2", "--seed", "7",
        "--out-clean", "clean2.csv", "--out-perturbed", "pert2.csv", "--out", "fixture.json",
    ],
    [
        "fixture", "--scenario", "random", "--norm-x", "1.0", "--norm-delta", "0.4",
        "--n-points", "6", "--dim", "3", "--seed", "8",
        "--out-clean", "clean3.csv", "--out-perturbed", "pert3.csv", "--out", "fixture3.json",
    ],
    [
        "fixture", "--scenario", "random", "--norm-x", "1.0", "--norm-delta", "1.2",
        "--n-points", "12", "--dim", "3", "--seed", "9",
        "--out-clean", "cleanr.csv", "--out-perturbed", "pertr.csv", "--out", "fixturer.json",
    ],
]

# case name -> (argv, files compared against tests/golden/<case>/)
CASES = {
    "fixture": ([], ["fixture.json", "clean2.csv", "pert2.csv"]),
    "certify-so2-p-lower": (
        [
            "certify", "--group", "SO", "--clean", "clean2.csv", "--perturbed", "pert2.csv",
            "--sigma", "0.5", "--p-lower", "0.8", "--method", "both", "--seed", "42",
            "--n2", "2000", "--n3", "2000", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-se3": (
        [
            "certify", "--group", "SE", "--clean", "clean3.csv", "--perturbed", "pert3.csv",
            "--sigma", "0.5", "--p-lower", "0.9", "--seed", "5",
            "--n2", "500", "--n3", "500", "--alpha", "0.01", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-classifier-norm": (
        [
            "certify", "--group", "SO", "--clean", "clean2.csv", "--perturbed", "pert2.csv",
            "--sigma", "0.25", "--classifier", "norm", "--tau", "2.0", "--seed", "4",
            "--n1", "1000", "--n2", "1000", "--n3", "1000", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-classifier-centered": (
        [
            "certify", "--group", "SE", "--clean", "cleanr.csv", "--perturbed", "pertr.csv",
            "--sigma", "2.0", "--classifier", "centered-norm", "--tau", "16.0",
            "--seed", "12", "--n1", "1000", "--n2", "500", "--n3", "500", "--alpha", "0.01",
            "--multiclass", "--p-upper", "0.05", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-classifier-pairwise": (
        [
            "certify", "--group", "SE", "--clean", "cleanr.csv", "--perturbed", "pertr.csv",
            "--sigma", "0.5", "--classifier", "pairwise-centroid", "--tau", "4.0",
            "--seed", "11", "--n1", "1000", "--n2", "500", "--n3", "500", "--alpha", "0.01",
            "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-multiclass": (
        [
            "certify", "--group", "SE", "--clean", "clean2.csv", "--perturbed", "pert2.csv",
            "--sigma", "0.5", "--p-lower", "0.9", "--p-upper", "0.05", "--multiclass",
            "--seed", "6", "--n2", "1000", "--n3", "1000", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-multiclass-t": (
        [
            "certify", "--group", "T", "--clean", "clean2.csv", "--perturbed", "pert2.csv",
            "--sigma", "0.5", "--p-lower", "0.9", "--p-upper", "0.05", "--multiclass",
            "--seed", "1", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-multiclass-sxse-clamped": (
        [
            "certify", "--group", "SxSE", "--clean", "cleanr.csv", "--perturbed", "pertr.csv",
            "--sigma", "0.5", "--p-lower", "1.0", "--p-upper", "0.0", "--multiclass",
            "--method", "orbit", "--seed", "1", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-multiclass-o-not-above": (
        [
            "certify", "--group", "O", "--clean", "cleanr.csv", "--perturbed", "pertr.csv",
            "--sigma", "0.5", "--p-lower", "0.3", "--p-upper", "0.4", "--multiclass",
            "--method", "orbit", "--seed", "1", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-t-both-multiclass": (
        [
            "certify", "--group", "T", "--clean", "clean2.csv", "--perturbed", "pert2.csv",
            "--sigma", "0.5", "--p-lower", "0.4", "--method", "both", "--multiclass",
            "--p-upper", "0.1", "--seed", "1", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-sxse-orbit-nonpositive": (
        [
            "certify", "--group", "SxSE", "--clean", "cleanr.csv", "--perturbed", "pertr.csv",
            "--sigma", "0.5", "--p-lower", "0.3", "--method", "orbit", "--seed", "1",
            "--out", "out.json",
        ],
        ["out.json"],
    ),
    "certify-so3-multiclass": (
        [
            "certify", "--group", "SO", "--clean", "clean3.csv", "--perturbed", "pert3.csv",
            "--sigma", "0.5", "--p-lower", "0.9", "--p-upper", "0.05", "--multiclass",
            "--n2", "200", "--n3", "200", "--seed", "3", "--out", "out.json",
        ],
        ["out.json"],
    ),
    "pmin-grid-blackbox": (
        [
            "pmin-grid", "--group", "blackbox", "--norm-x", "0.4", "--norm-delta", "0.3",
            "--sigma", "0.5", "--resolution", "5", "--seed", "5",
            "--out-csv", "grid.csv", "--out-json", "grid.json",
        ],
        ["grid.json", "grid.csv"],
    ),
    "pmin-grid-so2": (
        [
            "pmin-grid", "--group", "SO2", "--norm-x", "0.4", "--norm-delta", "0.3",
            "--sigma", "0.5", "--resolution", "5", "--seed", "5", "--n1", "200",
            "--n2", "200", "--n3", "200", "--alpha", "0.01",
            "--out-csv", "grid.csv", "--out-json", "grid.json",
        ],
        ["grid.json", "grid.csv"],
    ),
    "smooth-predict": (
        [
            "smooth-predict", "--classifier", "norm", "--input", "clean2.csv",
            "--tau", "2.0", "--sigma", "0.25", "--n1", "1000", "--seed", "3",
            "--out", "out.json",
        ],
        ["out.json"],
    ),
    "project-sxse": (
        [
            "project", "--group", "SxSE", "--clean", "cleanr.csv", "--perturbed", "pertr.csv",
            "--out", "out.json",
        ],
        ["out.json"],
    ),
}


def _normalized(path: Path) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', path.read_text())


def run_case(name: str) -> None:
    """Write the shared inputs, then run the case's command, in the working
    directory."""
    argv, _ = CASES[name]
    for inputs in INPUTS:
        assert main(inputs) == 0
    if argv:
        assert main(argv) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_case(name)
    for filename in CASES[name][1]:
        expected = (GOLDEN / name / filename).read_text()
        assert _normalized(tmp_path / filename) == expected, f"{name}/{filename}"
