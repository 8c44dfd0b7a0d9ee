"""The five workloads: their inputs, the embeval command they run, and their table checks.

Sizes are set so that one command takes about 1.5 to 2.5 s on a 2-core
machine: a run sets up three times and then times commands for
``--seconds``, and every run of every workload has to fit the benchmark's
total time budget.  Each comment says why the workload has its shape.
"""

import csv
import hashlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from gen import (DocSize, ThesaurusSize, VecSize, gen_documents, gen_thesaurus, gen_vectors,
                 thesaurus_plan, vocabulary)

PIPELINE_CONF = "cover_delimiter = ^---$\nlanguages = de,en\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    vectors: VecSize | None = None
    thesaurus: ThesaurusSize | None = None
    docs: DocSize | None = None
    warm: bool = False           # timed commands reuse the neighbor cache the set-up left


WORKLOADS = {w.name: w for w in [
    # A 50k-token, dim-10 vocabulary (the ROADMAP baseline vocabulary size)
    # and 30 labels, 8 of them with a token that has no exact vocabulary
    # hit (6 one edit away, 2 random).  best_match scans the length buckets
    # for those tokens at s=0.9 and s=0.95 and does most of the work; the
    # small dim keeps load_vec cheap; no neighbor search happens.
    Workload(
        "coverage-fuzzy",
        "stringsim.best_match scans dominate: 8 of 30 labels lack an exact hit in a 50k vocabulary",
        "coverage",
        vectors=VecSize(50_000, 10),
        thesaurus=ThesaurusSize(50_000, exact=16, multiword=6, fuzzy=6, oov=2),
    ),
    # Two 20k x 50 models (9 MB each; B is A plus noise, 3 zero rows planted
    # in each) and 120 single-word in-vocabulary keywords plus multi-word
    # and out-of-vocabulary labels, k=10,50,200, a fresh cache per command:
    # top-k search over unique queries and cache_store writes are the larger
    # share, load_vec the rest.
    Workload(
        "diversity-cold",
        "top_k_batch search over 120 unique queries plus cache_store writes, fresh cache every command",
        "diversity",
        vectors=VecSize(20_000, 50, n_models=2, noise=1.0, zero_rows=6),
        thesaurus=ThesaurusSize(20_000, exact=120, multiword=20, oov=20),
    ),
    # Same inputs and arguments; the set-up fills the cache and the timed
    # commands read it, so search is bypassed and load_vec plus cache_load
    # are the work.  A search-only change must show no change here.
    Workload(
        "diversity-warm",
        "same inputs as diversity-cold but the cache is warm: load_vec and cache_load, no search",
        "diversity",
        vectors=VecSize(20_000, 50, n_models=2, noise=1.0, zero_rows=6),
        thesaurus=ThesaurusSize(20_000, exact=120, multiword=20, oov=20),
        warm=True,
    ),
    # One 20k x 50 model and 80 in-vocabulary descriptors in about 5 pairs
    # each across broader, narrower, related and altLabel; 40 % of the
    # concepts are planted near their descriptor so r is neither 0 nor 100.
    # Search runs as one top_k call per pair and k, so descriptors repeat:
    # shared work, unlike diversity-cold's unique queries.
    Workload(
        "relations",
        "per-pair top_k calls with repeated descriptors (shared work), no cache",
        "relations",
        vectors=VecSize(20_000, 50),
        thesaurus=ThesaurusSize(20_000, descriptors=80, planted=0.4),
    ),
    # 100 documents, about 1 MB of German and English lines with cover
    # pages, line-break hyphens, camel-case joins, integers, page numbers
    # and repeated sentences: the only workload for corpus, langid and
    # numwords.
    Workload(
        "clean",
        "the only workload of corpus, langid and numwords: 1 MB of mixed German and English documents",
        "clean",
        docs=DocSize(100, 100),
    ),
]}


def write_inputs(w: Workload, seed: int, root: Path) -> dict[str, dict]:
    """Write the workload's inputs under ``root``; returns name -> {path, bytes, sha256}."""
    files: dict[str, bytes] = {}
    if w.vectors is not None:
        for name, data in zip("ab", gen_vectors(seed, w.vectors, w.thesaurus)):
            files[f"{name}.vec"] = data
    if w.thesaurus is not None:
        files["thesaurus.nt"] = gen_thesaurus(seed, w.thesaurus)
    if w.docs is not None:
        files["pipeline.conf"] = PIPELINE_CONF.encode()
        for name, data in gen_documents(seed, w.docs):
            files[f"docs/{name}"] = data
    record = {}
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        record[name] = {"path": str(path), "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return record


def argv(w: Workload, inputs: Path, out: Path, cache: Path) -> list[str]:
    """Arguments of one embeval command of this workload."""
    th = ["--thesaurus", str(inputs / "thesaurus.nt")]
    ks = ["--k", "10", "--k", "50", "--k", "200"]
    if w.command == "coverage":
        return ["coverage", "--model", str(inputs / "a.vec"), *th,
                "--s", "0.9", "--s", "0.95", "--s", "1.0", "--lang", "de", "--out", str(out)]
    if w.command == "diversity":
        return ["diversity", "--model", str(inputs / "a.vec"), "--model", str(inputs / "b.vec"), *th,
                *ks, "--lang", "de", "--cache-dir", str(cache), "--out", str(out)]
    if w.command == "relations":
        return ["relations", "--model", str(inputs / "a.vec"), *th, *ks, "--lang", "de", "--out", str(out)]
    return ["clean", "--input", str(inputs / "docs"), "--out", str(out),
            "--config", str(inputs / "pipeline.conf")]


def table_digest(out: Path) -> str:
    """SHA-256 over every output file except the manifest (its duration varies)."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


@lru_cache(maxsize=None)
def expected_coverage(w: Workload, seed: int) -> tuple[int, int]:
    """(labels, labels covered at s=1.0) by plain set membership of every label token."""
    vocab = set(vocabulary(seed, w.thesaurus.n_vocab))
    labels = set(thesaurus_plan(seed, w.thesaurus).labels)
    covered = sum(all(t in vocab for t in label.lower().replace("-", " ").split()) for label in labels)
    return len(labels), covered


def check_tables(w: Workload, seed: int, out: Path) -> list[str]:
    """Errors in one command's tables that a digest comparison cannot catch."""
    if w.command != "coverage":
        return []
    with open(out / "coverage.csv", newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if float(r["s"]) == 1.0]
    if len(rows) != 1:
        return [f"coverage.csv has {len(rows)} rows for s=1.0"]
    got = (int(rows[0]["n_keywords"]), int(rows[0]["n_covered"]))
    want = expected_coverage(w, seed)
    if got != want:
        return [f"coverage at s=1.0 is {got[1]}/{got[0]}, set membership gives {want[1]}/{want[0]}"]
    return []
