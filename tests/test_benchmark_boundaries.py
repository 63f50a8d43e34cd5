"""The benchmark's tracer must find every layer boundary it binds.

``perfbench/tracing.py`` wraps functions by module attribute name
(``invarcert.mc.sample_gaussian``, ``invarcert.cli.pmin_grid``, ...) and
reports a renamed or deleted target as an absent layer rather than an error,
so a refactor could otherwise make per-layer metrics vanish silently.
"""

from pathlib import Path

import invarcert.mc

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
