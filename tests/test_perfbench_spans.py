"""The benchmark tracer finds every layer it times.

``perfbench/spans.py`` wraps named functions of the package and reports a
target it cannot find as missing instead of failing the run.  This test
makes a deleted or renamed target fail here, and runs one traced batch
search so the batch probe reads the real return type.
"""

import types
from pathlib import Path

import numpy as np

from embeval import neighbors
from conftest import random_model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module() -> types.ModuleType:
    # executed from its source, so nothing is written next to it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_finds_every_target_and_probes_a_batch_search():
    model = random_model(np.random.default_rng(2), "m", 20, 4)
    tracer = _spans_module().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        neighbors.top_k_batch(model, ["w0001", "w0002", "nope"], 3)
    finally:
        tracer.close()
    # (name, start, end, parent, command, probe); the probe is (queries searched, rows, dim)
    batch = [span for span in tracer.spans if span[0] == "neighbors.top_k_batch"]
    assert [span[5] for span in batch] == [(2, 20, 4)]
    assert not hasattr(neighbors.top_k_batch, "__wrapped__")
