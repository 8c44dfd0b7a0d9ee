"""Table rendering (CSV and Markdown side by side) and run manifests.

CSV is the machine contract; the Markdown lays the same numbers out
with models as columns and s or k values as row groups so humans can diff
runs at a glance.  Every command records
a manifest with digests of its inputs, its parameters and the tool version,
so a result can always be traced back to what produced it.
"""

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path


def pct(value: float) -> str:
    """Percentages are reported with two decimals everywhere."""
    return f"{value:.2f}"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def markdown_table(header: list[str], rows: list[list]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(row)) + " |"
    lines = [fmt(header), "| " + " | ".join("-" * w for w in widths) + " |"]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines) + "\n"


@dataclass
class RunManifest:
    """What a command ran on: inputs with digests, parameters, version, duration."""

    command: str
    inputs: list[dict] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    version: str = ""
    duration_seconds: float = 0.0

    def add_input(self, path, sha256: str | None = None) -> None:
        """Record an input; ``sha256`` is its digest when already known."""
        if sha256 is None:
            sha256 = sha256_file(path)
        self.inputs.append({"path": str(path), "sha256": sha256})

    def to_json(self) -> str:
        record = {
            "command": self.command,
            "inputs": self.inputs,
            "parameters": self.parameters,
            "version": self.version,
            "duration_seconds": round(self.duration_seconds, 3),
        }
        return json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


class ManifestTimer:
    """Context manager filling in the wall-clock duration of a command."""

    def __init__(self, manifest: RunManifest):
        self.manifest = manifest

    def __enter__(self):
        self._start = time.perf_counter()
        return self.manifest

    def __exit__(self, exc_type, exc, tb):
        self.manifest.duration_seconds = time.perf_counter() - self._start
        return False
