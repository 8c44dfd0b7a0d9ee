"""The benchmark's seed-1 ``clean`` command writes the tables it expects.

``perfbench/run.py`` checks every command's tables against the digests in
``perfbench/expected_digests.json``.  This test runs the ``clean`` command
of that workload in-process on the same generated inputs, so a change that
alters one byte of the cleaned corpus, its stats or its report fails here
as well as in the benchmark.
"""

import importlib
import json
import sys
from pathlib import Path

from embeval.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_clean_workload_writes_its_expected_digest(tmp_path, monkeypatch):
    expected = json.loads((PERFBENCH / "expected_digests.json").read_text(encoding="utf-8"))
    # imported from the benchmark's own sources, writing no bytecode next to them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        workloads = importlib.import_module("workloads")
        w = workloads.WORKLOADS["clean"]
        inputs, out = tmp_path / "inputs", tmp_path / "out"
        workloads.write_inputs(w, expected["seed"], inputs)
        assert main(workloads.argv(w, inputs, out, tmp_path / "cache")) == 0
        assert workloads.table_digest(out) == expected["tables"]["clean"]
    finally:
        for name in ("workloads", "gen"):
            sys.modules.pop(name, None)
