"""The benchmark traces pageseq functions by module and name; a rename
must fail here, not only in the benchmark's own tests."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_span_resolves_as_the_tracer_looks_it_up():
    # Tracer.install takes module.__dict__[function], or
    # getattr(module, class).__dict__[method] (maybe a classmethod)
    unresolved = []
    for span in _tracer().SPANS:
        module_name, *path = span.split(".")
        owner = importlib.import_module(f"pageseq.{module_name}")
        if len(path) == 2:
            owner = getattr(owner, path[0], None)
        fn = vars(owner).get(path[-1]) if owner is not None else None
        if not callable(getattr(fn, "__func__", fn)):
            unresolved.append(span)
    assert unresolved == []
