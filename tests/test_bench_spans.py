"""The traced benchmark wraps a few private targets by name, listed in
``bench/spans.py`` as ``EXTRA``; the tracer crashes on one that is gone, so
each must still resolve the way ``Tracer.install`` looks it up."""

import importlib.util
from pathlib import Path

import catbound

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_extra_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.EXTRA
    for module, owner, attribute, label in spans.EXTRA:
        namespace = vars(getattr(catbound, module))
        if owner is not None:
            namespace = vars(namespace[owner])
        assert callable(namespace.get(attribute)), label
