"""The benchmark's tracer must find every layer boundary it binds.

``perfbench/tracing.py`` wraps functions by module attribute name
(``invarcert.mc.sample_gaussian``, ``invarcert.cli.pmin_grid``, ...) and
reports a renamed or deleted target as an absent layer rather than an error,
so a refactor could otherwise make per-layer metrics vanish silently.
"""

import threading
from pathlib import Path

import numpy as np

import invarcert.mc
import invarcert.tight
from invarcert.cli import main
from invarcert.geometry import GroupKind, PointCloud, save_points_csv
from invarcert.mc import McConfig
from invarcert.oracles import make_classifier

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    original = invarcert.mc.prob_certify_reduced
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent() == []
        assert invarcert.mc.prob_certify_reduced is not original
    finally:
        tracer.uninstall()
    assert invarcert.mc.prob_certify_reduced is original


def test_traced_spans_stay_on_calling_thread(monkeypatch):
    # the tracer keeps one span stack, so a span opened on a worker thread
    # would take the wrong parent; the workers of rho_so3 and of
    # predict_batch must run untraced code only
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    threads = []
    call = tracer.call

    def recording_call(*args, **kwargs):
        threads.append((args[0], threading.get_ident()))
        return call(*args, **kwargs)

    monkeypatch.setattr(tracer, "call", recording_call)
    rng = np.random.default_rng(5)
    x = PointCloud(rng.standard_normal((6, 3)))
    x_prime = PointCloud(x.data + 0.3 * rng.standard_normal((6, 3)))
    mc = McConfig(n2=100, n3=100)
    # N = 64, D = 2: 32 clouds a profile chunk, so 100 noisy copies span 4
    reference = PointCloud(rng.standard_normal((64, 2)))
    g = make_classifier("pairwise-centroid", 1.0, reference)
    tracer.install()
    try:
        for kind in (GroupKind.ROTATION, GroupKind.ROTO_TRANSLATION):
            invarcert.tight.certify_tight(kind, x, x_prime, 0.8, 0.5, mc, seed=1)
            invarcert.tight.certify_multiclass(kind, x, x_prime, 0.8, 0.1, 0.5, mc, seed=1)
        invarcert.mc.smooth_predict(g, reference, 0.1, 100, 0.01, seed=2)
    finally:
        tracer.uninstall()
    assert {"tight.statistic", "mc.reduced", "oracles.predict_batch"} <= {
        layer for layer, _ in threads
    }
    assert {ident for _, ident in threads} == {threading.get_ident()}


def test_tracer_times_every_assignment(monkeypatch, tmp_path):
    # orbit.assignment is bound at invarcert.orbit.linear_sum_assignment, the
    # module-level shim that imports scipy's solver on first call: every
    # permutation step must still pass through it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 2))
    save_points_csv(str(tmp_path / "clean.csv"), PointCloud(x))
    save_points_csv(str(tmp_path / "perturbed.csv"),
                    PointCloud(x[rng.permutation(8)] + 0.3 * rng.standard_normal((8, 2))))
    tracer = Tracer()
    tracer.install()
    try:
        code = main(["project", "--group", "SxSE", "--clean", str(tmp_path / "clean.csv"),
                     "--perturbed", str(tmp_path / "perturbed.csv"), "--max-iters", "3",
                     "--out", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    agg = tracer.aggregate()
    assert agg["orbit.registration"]["calls"] == 1
    calls = agg["orbit.assignment"]["calls"]
    assert calls == agg["orbit.project_permutation"]["calls"] >= 1
