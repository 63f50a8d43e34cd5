#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Runs a few cheap calls of each workload twice: as the program wrote them,
where every check must pass, and with one output corrupted (a flipped grid
cell, a wrong residual, a flipped verdict, a shifted radius), where the
error ratio must rise above 0.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _edit_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["results"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _edit_cell(path: str, i: int, j: int, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    rows[i][j] = edit(rows[i][j])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(row) for row in rows) + "\n")


def _next_float(cell: str) -> str:
    import numpy as np

    return repr(float(np.nextafter(float(cell), 2.0)))


def _scale_residual(results: dict) -> None:
    results["residual"] *= 1.0 + 1e-6


def _flip_verdict(results: dict) -> None:
    results["tight"]["certified"] = not results["tight"]["certified"]


def _shift_radius(results: dict) -> None:
    results["orbit"]["radius"] += 1e-9


# (name, workload, slots run, slot corrupted, corruption of that call's outputs)
CASES = [
    ("fine grid: one cell one ulp off", "pmin-grid-so2", [0, 1], 1,
     lambda call: _edit_cell(call.csv, 2, 2, _next_float)),
    ("coarse grid: a feasible cell marked INF", "pmin-grid-so2", [0, 1], 0,
     lambda call: _edit_cell(call.csv, 0, 0, lambda cell: "INF")),
    ("project: residual off by 1e-6 relative", "project-orbit", [0, 1, 2, 3], 2,
     lambda call: _edit_json(call.out, _scale_residual)),
    ("certify 2-D: tight verdict flipped", "certify-2d-classifier", [0, 6], 0,
     lambda call: _edit_json(call.out, _flip_verdict)),
    ("certify 3-D: orbit radius shifted by 1e-9", "certify-3d", [0], 0,
     lambda call: _edit_json(call.out, _shift_radius)),
]


def error_ratio(results) -> float:
    return sum(1 for r in results if r.failures) / len(results)


def main() -> int:
    cli = run.load_program()
    from workloads import WORKLOADS

    workdir = run.OUT_DIR / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name, workload, slots, bad_slot, corrupt in CASES:
            calls = [c for c in WORKLOADS[workload].make_cycle(str(workdir), 1, 0) if c.slot in slots]

            def only_bad(call, corrupt=corrupt, bad_slot=bad_slot):
                if call.slot == bad_slot:
                    corrupt(call)

            clean_ctx, bad_ctx = {}, {}
            clean = [run.run_call(cli.main, c, clean_ctx) for c in calls]
            bad = [run.run_call(cli.main, c, bad_ctx, corrupt=only_bad) for c in calls]
            passed = error_ratio(clean) == 0.0 and error_ratio(bad) > 0.0
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {name}: error_ratio {error_ratio(clean):.3g}"
                  f" as written, {error_ratio(bad):.3g} corrupted")
            for r in bad:
                for failure in r.failures[:1]:
                    print(f"       caught: {failure}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
