"""The benchmark's seed-1 commands write the tables it expects.

``perfbench/run.py`` checks every command's tables against the digests in
``perfbench/expected_digests.json``.  This test runs the command of each
workload listed there in-process on the same generated inputs, so a change
that alters one byte of a coverage, diversity or relations table, or of the
cleaned corpus, its stats or its report, fails here as well as in the
benchmark.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from embeval.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(EXPECTED["tables"]))
def test_workload_writes_its_expected_digest(name, tmp_path, monkeypatch):
    # imported from the benchmark's own sources, writing no bytecode next to them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        workloads = importlib.import_module("workloads")
        w = workloads.WORKLOADS[name]
        inputs, out, cache = tmp_path / "inputs", tmp_path / "out", tmp_path / "cache"
        workloads.write_inputs(w, EXPECTED["seed"], inputs)
        if w.warm:
            # the first command fills the cache the checked one reads
            assert main(workloads.argv(w, inputs, tmp_path / "setup", cache)) == 0

            def refuse(*args, **kwargs):
                raise AssertionError("the warm command searched")

            monkeypatch.setattr("embeval.neighbors.top_k_batch", refuse)
        assert main(workloads.argv(w, inputs, out, cache)) == 0
        assert workloads.table_digest(out) == EXPECTED["tables"][name]
        assert workloads.check_tables(w, EXPECTED["seed"], out) == []
    finally:
        for module in ("workloads", "gen"):
            sys.modules.pop(module, None)
