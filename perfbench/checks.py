"""Output checks that hold for any correct implementation.

Each check returns a list of failure messages; an empty list means the call
passed.  No check asserts ``confidence == 1 - alpha`` or rejects extra JSON
keys, so outputs may grow without tripping the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from statistics import NormalDist

import numpy as np

_PHI_INV = NormalDist().inv_cdf


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def results_digest(doc: dict, csv_text: str | None) -> str:
    """sha256 of the document's ``results``; a CSV path is replaced by the
    digest of the CSV, so the digest does not depend on where files live."""
    results = dict(doc.get("results", {}))
    if csv_text is not None:
        results["csv"] = hashlib.sha256(csv_text.encode()).hexdigest()
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _check_radius(name: str, outcome: dict, sigma: float) -> list[str]:
    expected = sigma * _PHI_INV(outcome["p_lower"])
    if not _close(outcome["radius"], expected, 1e-12):
        return [f"{name}.radius {outcome['radius']!r} != sigma*PhiInv(p_lower) {expected!r}"]
    return []


def check_certify(call, doc: dict) -> list[str]:
    fails = []
    res = doc["results"]
    sigma = call.expect["sigma"]
    orbit, tight = res["orbit"], res["tight"]
    if tight["certified"] != (tight["bound_value"] > 0.5):
        fails.append(f"tight.certified {tight['certified']} but bound_value {tight['bound_value']!r}")
    fails += _check_radius("orbit", orbit, sigma)
    fails += _check_radius("tight", tight, sigma)
    gap = float(np.linalg.norm(call.perturbed - call.clean))
    if orbit["residual"] > gap * (1 + 1e-12) + 1e-12:
        fails.append(f"orbit.residual {orbit['residual']!r} exceeds |X'-X| {gap!r}")
    if call.expect["exact"]:
        scale = max(1.0, float(np.linalg.norm(call.clean)))
        if orbit["residual"] > 1e-9 * scale:
            fails.append(f"exact fixture: orbit.residual {orbit['residual']!r} not ~0")
        if not orbit["certified"]:
            fails.append("exact fixture: orbit verdict not certified at p_lower 0.9")
        if not tight["certified"]:
            fails.append(
                f"exact fixture: tight verdict not certified at p_lower 0.9"
                f" (bound_value {tight['bound_value']!r})"
            )
    if call.expect["multiclass"]:
        mc = res["multiclass"]
        if not isinstance(mc["certified"], bool) or not 0.0 <= mc["bound_value"] <= 1.0:
            fails.append(f"multiclass outcome malformed: {mc!r}")
    if call.expect["classifier"] and "classifier_label" not in res:
        fails.append("classifier run without classifier_label")
    return fails


def parse_grid(csv_text: str) -> list[list[str]]:
    return [line.split(",") for line in csv_text.splitlines() if line]


def check_pmin(call, doc: dict, csv_text: str, coarse_text: str | None) -> list[str]:
    fails = []
    res = call.expect["resolution"]
    cells = parse_grid(csv_text)
    if len(cells) != res or any(len(row) != res for row in cells):
        return [f"grid is not {res} x {res}"]
    r2 = (res - 1) ** 2
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            outside = i * i + j * j > r2      # node (j, i) / (res - 1) outside the unit disc
            if (cell == "INF") != outside:
                fails.append(f"cell ({i},{j}) is {cell!r}, outside disc: {outside}")
            elif not outside and not 0.5 <= float(cell) <= 1.0:
                fails.append(f"cell ({i},{j}) = {cell} outside [0.5, 1]")
    if call.expect["coarse_slot"] is not None:
        if coarse_text is None:
            return fails + ["coarse grid of the nested pair is missing"]
        coarse = parse_grid(coarse_text)
        for i, row in enumerate(coarse):
            for j, cell in enumerate(row):
                if 2 * i >= res or 2 * j >= res or cells[2 * i][2 * j] != cell:
                    fails.append(f"coarse cell ({i},{j}) {cell} differs from fine cell ({2*i},{2*j})")
    if doc["results"].get("infeasible_cells") != sum(c == "INF" for row in cells for c in row):
        fails.append("infeasible_cells disagrees with the CSV")
    return fails


def apply_transform(perturbed: np.ndarray, transform: dict) -> np.ndarray:
    """X' with the reported permutation, rotation and translation applied in
    that order: rows X'[perm], then X' R^T, then + t."""
    y = perturbed
    if "permutation" in transform:
        y = y[np.asarray(transform["permutation"], dtype=int)]
    if "rotation" in transform:
        y = y @ np.asarray(transform["rotation"], dtype=float).T
    if "translation" in transform:
        y = y + np.asarray(transform["translation"], dtype=float)
    return y


def check_project(call, doc: dict) -> list[str]:
    fails = []
    res = doc["results"]
    residual = res["residual"]
    scale = float(np.linalg.norm(call.clean))
    try:
        moved = apply_transform(call.perturbed, res["transform"])
        recomputed = float(np.linalg.norm(moved - call.clean))
    except (ValueError, IndexError) as exc:
        return [f"transform cannot be applied: {exc}"]
    if abs(recomputed - residual) > 1e-9 * residual + 1e-12 * scale:
        fails.append(f"transform gives residual {recomputed!r}, reported {residual!r}")
    gap = float(np.linalg.norm(call.perturbed - call.clean))
    if residual > gap * (1 + 1e-12) + 1e-12:
        fails.append(f"residual {residual!r} exceeds |X'-X| {gap!r}")
    if call.expect["group"] == "S" and call.expect["pure_permutation"] and residual > 1e-12 * scale:
        fails.append(f"S on a pure permutation: residual {residual!r} != 0")
    return fails


def check_call(call, rc, context: dict) -> tuple[list[str], str | None]:
    """Check one finished call; ``context`` maps slots of this cycle to their
    CSV text.  Returns (failures, results digest)."""
    if rc != 0:
        return [f"exit code {rc!r}"], None
    try:
        doc = _load(call.out)
        csv_text = None
        if call.kind == "pmin-grid":
            with open(call.csv, encoding="utf-8") as fh:
                csv_text = fh.read()
            context[call.slot] = csv_text
        if doc.get("schema") != 1:
            return [f"schema {doc.get('schema')!r} != 1"], results_digest(doc, csv_text)
        if call.kind == "certify":
            fails = check_certify(call, doc)
        elif call.kind == "pmin-grid":
            fails = check_pmin(call, doc, csv_text, context.get(call.expect["coarse_slot"]))
        else:
            fails = check_project(call, doc)
        return fails, results_digest(doc, csv_text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"], None
