"""The benchmark's tracer wraps permsym functions by name, and silently drops
the metrics of a span it cannot find.  Every span must resolve against the
package, so that renaming or moving a traced function fails here instead."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_spans():
    # load the module alone, without installing the tracer
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def test_every_tracer_span_resolves():
    spans = load_spans()
    assert spans
    absent = []
    for name, modname, path in spans:
        *scope, attr = path.split(".")
        owner = importlib.import_module(modname)
        # as the tracer resolves it: a method must be defined on its own class
        try:
            for part in scope:
                owner = getattr(owner, part)
            target = vars(owner)[attr] if scope else getattr(owner, attr)
        except (AttributeError, KeyError, TypeError):
            absent.append(name)
            continue
        if not callable(target):
            absent.append(name)
    assert absent == []
