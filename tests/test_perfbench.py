"""The benchmark's span tracer names library attributes by string; a
refactor that renames or drops one breaks the benchmark run before it
measures anything."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(m, a) for _, m, a in spans.TARGETS if m.startswith("gdag_lab.")]
    assert targets
    missing = [
        (module, attr) for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
