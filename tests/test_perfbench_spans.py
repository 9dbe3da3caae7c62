"""The traced benchmark's spans still find every library name they wrap.

``perfbench/spans.install`` looks its targets up by attribute, so renaming
a wrapped library function breaks ``perfbench/run.py --trace 1``; this
installs the tracer the way that run does and takes it out again."""

import importlib.util
from pathlib import Path

import germradius
import germradius.cli  # noqa: F401  (install wraps cli's entry points)

from helpers import series_of, square_germ

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_install_and_uninstall():
    spans = _spans_module()
    gr = germradius
    compose, recover = gr.pseries.compose, gr.recovery.recover
    tracer = spans.Tracer()
    undo = spans.install(tracer, gr)
    try:
        assert gr.recovery.compose is not compose
        assert gr.recover is not recover
        germ = square_germ(degree=12)
        f = series_of("x^2", ["x"], degree=11)
        report = tracer.run_op(gr.recover, germ, f, 3)
        assert report.g_series.coeffs == {(1,): 1}
        assert tracer.calls["recovery.recover"] == 1
        assert tracer.calls["recovery.residual"] == 1
    finally:
        spans.uninstall(undo)
    assert gr.recovery.compose is compose
    assert gr.pseries.compose is compose
    assert gr.recover is recover and gr.recovery.recover is recover
    assert undo == []
