"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from pathlib import Path

import numpy as np

from embeval.cli import main
from embeval.corpus import PipelineConfig, run_pipeline
from embeval.neighbors import top_k
from embeval.report import pct
from embeval.stringsim import VocabIndex, best_match, edit_distance_sub2, ratio
from conftest import (
    DATA_DIR,
    anchored,
    coverage_at,
    diversity_at,
    make_model,
    random_model,
    random_rows,
    relational_at,
    save_vec,
)
from oracles import (
    dp_edit_distance_sub2,
    naive_coverage_count,
    naive_diversity,
    naive_relational,
    knn_oracle,
    ratio_oracle,
    raw_cosine,
    scan_match,
)


class _criterion:
    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.start
        print(f"[acceptance {self.number:02d}] {status} ({elapsed:.1f}s) {self.label}")
        return False


def _random_word(rng: random.Random, lo=0, hi=20) -> str:
    alphabet = "abcdefghijßüöäé漢字 "
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(lo, hi + 1)))


def test_criterion_01_edit_distance_oracle():
    with _criterion(1, "edit distance + ratio match quadratic DP on 10,000 pairs"):
        start = time.perf_counter()
        rng = random.Random(1001)
        for _ in range(10_000):
            a = _random_word(rng)
            b = _random_word(rng)
            d = dp_edit_distance_sub2(a, b)
            assert edit_distance_sub2(a, b) == d
            assert ratio(a, b) == ratio_oracle(a, b)
        assert time.perf_counter() - start < 10.0


def test_criterion_02_knn_oracle():
    with _criterion(2, "top_k matches all-pairs brute force on 1,000 models"):
        start = time.perf_counter()
        rng = np.random.default_rng(2002)
        for trial in range(1_000):
            n = int(rng.integers(2, 201))
            dim = int(rng.integers(1, 17))
            rows = random_rows(
                rng, n, dim,
                n_duplicate_rows=int(rng.integers(0, 5)),
                n_zero_rows=int(rng.integers(0, 2)),
            )
            model = make_model(f"m{trial}", [f"w{i:04d}" for i in range(n)], rows)
            qi = int(rng.integers(0, n))
            if qi in model.zero_rows:
                continue
            query = model.vocab[qi]
            k = int(rng.integers(0, n + 2))
            got = top_k(model, query, k)
            expected = knn_oracle(model, query, k)
            assert [t for t, _ in got] == [t for t, _ in expected]
            assert [s for _, s in got] == [s for _, s in expected]
            if trial % 100 == 0 and got:
                token, score = got[0]
                u = rows[model.index[query]]
                v = rows[model.index[token]]
                assert abs(score - raw_cosine(u, v)) <= 1e-12
        assert time.perf_counter() - start < 60.0


def test_criterion_03_coverage_fixture_values():
    with _criterion(3, "3-keyword coverage fixture: 33.33 at s=1.0, 66.67 at s=0.9"):
        model = make_model("m", ["sozial", "ungleichheit", "macht"], np.eye(3))
        labels = ["soziale Ungleichheit", "Macht", "Armut"]
        assert pct(coverage_at(model, labels, 1.0).c) == "33.33"
        assert pct(coverage_at(model, labels, 0.9).c) == "66.67"


def test_criterion_04_coverage_monotone_in_s():
    with _criterion(4, "coverage non-increasing over s on 100 random fixtures"):
        rng = random.Random(4004)
        base_words = [
            "macht", "staat", "sozial", "armut", "kultur", "wandel", "bildung",
            "arbeit", "gruppe", "system", "wert", "norm",
        ]
        for _ in range(100):
            vocab = rng.sample(base_words, rng.randrange(4, len(base_words)))
            model = make_model(
                "m", vocab, [[rng.random() + 0.1 for _ in range(3)] for _ in vocab]
            )
            keywords = []
            for _ in range(rng.randrange(3, 10)):
                word = rng.choice(base_words)
                variant = rng.choice([word, word + "e", word[:-1] + "x", word + " " + rng.choice(base_words)])
                keywords.append(variant)
            previous = None
            for s in (0.85, 0.9, 0.95, 1.0):
                c = coverage_at(model, keywords, s).c
                if previous is not None:
                    assert c <= previous
                previous = c


def test_criterion_05_diversity_laws():
    with _criterion(5, "diversity: zero diagonal, symmetry, non-increasing in k"):
        rng = np.random.default_rng(5005)
        for trial in range(15):
            n = int(rng.integers(20, 70))
            model_a = random_model(rng, "A", n, 5)
            model_b = random_model(rng, "B", n, 5)
            labels = [model_a.vocab[i] for i in rng.choice(n, size=12, replace=False)]
            for k in (1, 5, 10, 50):
                self_result = diversity_at(model_a, model_a, labels, k)
                assert pct(self_result.d) == "0.00"
            previous = None
            for k in (1, 5, 10, 50):
                ab = diversity_at(model_a, model_b, labels, k)
                ba = diversity_at(model_b, model_a, labels, k)
                assert ab.d == ba.d
                if previous is not None:
                    assert ab.d <= previous
                previous = ab.d


def test_criterion_06_relational_monotone_and_planted_flip():
    with _criterion(6, "relational coverage monotone in k; rank-3 plant flips at k"):
        model = make_model("m", ["macht", "staat", "politik", "herrschaft", "kultur"], [
            [1, 0],
            anchored(0.99, 0), anchored(0.98, 0), anchored(0.97, 0), anchored(0.2, 0),
        ])
        pairs = {"related": [("Macht", "Herrschaft")]}
        assert relational_at(model, pairs, 2)["related"].n_found == 0
        assert relational_at(model, pairs, 10)["related"].n_found == 1

        rng = np.random.default_rng(6006)
        for trial in range(20):
            n = int(rng.integers(15, 50))
            rmodel = random_model(rng, "m", n, 4)
            rpairs = {"broader": [
                (rmodel.vocab[int(i)], rmodel.vocab[int(j)])
                for i, j in zip(rng.integers(0, n, 8), rng.integers(0, n, 8))
                if i != j
            ]}
            previous = None
            for k in (1, 3, 10, n - 1):
                r = relational_at(rmodel, rpairs, k)["broader"].r
                if previous is not None:
                    assert r >= previous
                previous = r


def test_criterion_07_brute_force_metric_equivalence():
    with _criterion(7, "all three metrics equal naive enumeration on small fixtures"):
        rng = np.random.default_rng(7007)
        words = [
            "macht", "staat", "sozial", "armut", "kultur", "wandel", "bildung",
            "arbeit", "gruppe", "system", "wert", "norm", "rolle", "ehe",
        ]
        for trial in range(10):
            n = int(rng.integers(10, 15))
            vocab = list(rng.choice(words, size=n, replace=False))
            model_a = make_model("A", vocab, rng.standard_normal((n, 4)))
            model_b = make_model("B", vocab, rng.standard_normal((n, 4)))
            labels = list(rng.choice(words, size=8, replace=False)) + ["soziale lage"]

            for s in (0.8, 0.9, 1.0):
                got = coverage_at(model_a, labels, s).n_covered
                assert got == naive_coverage_count(vocab, labels, s)

            for k in (1, 3, 6):
                result = diversity_at(model_a, model_b, labels, k)
                assert (result.n_evaluated, result.n_disjoint) == naive_diversity(
                    model_a, model_b, labels, k
                )

            pairs = {"related": [
                (vocab[int(i)], vocab[int(j)])
                for i, j in zip(rng.integers(0, n, 6), rng.integers(0, n, 6))
                if i != j
            ] + [("fehlt", vocab[0])]}
            for k in (1, 4):
                res = relational_at(model_a, pairs, k)["related"]
                naive = naive_relational(model_a, pairs, k)["related"]
                assert (res.n_pairs, res.n_found, res.n_oov_descriptors) == naive


GERMAN_DOC = """Deckblatt des Dokumentenservers
---
Die soziale Ungleichheit in Deutschland nimmt seit Jahren zu.
Bildung und Einkommen hängen eng zusammen, das zeigen 5 neue Studien.
Der Sozial-
staat gleicht einen Teil der Unterschiede aus.
Die soziale Ungleichheit in Deutschland nimmt seit Jahren zu.
Zwischen Nord-Süd und Ost-West bestehen weiter große Unterschiede.
Armut und Chancengleichheit bleiben Themen der Sozialstruktur jeder Gesellschaft.
Verarmung bedroht die Chancengleichheit in der Gesellschaft.
"""

ENGLISH_DOC = """Cover page
---
Social inequality has been rising for 42 years in many countries.
Education and income are closely linked, as recent work shows.
The welfare state offsets some of the differences.
Social inequality has been rising for 42 years in many countries.
"""


def _write_docs(tmp_path: Path) -> Path:
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "doc_de.txt").write_text(GERMAN_DOC, encoding="utf-8")
    (docs / "doc_en.txt").write_text(ENGLISH_DOC, encoding="utf-8")
    return docs


def test_criterion_08_pipeline_idempotent_and_clean(tmp_path):
    with _criterion(8, "pipeline idempotent, outputs clean, dedup drops exactly the plants"):
        docs = _write_docs(tmp_path)
        config = PipelineConfig(cover_delimiter="^---$")
        out1 = tmp_path / "out1"
        stats, report, outputs = run_pipeline(docs, config, out1)

        # the fixture plants exactly one duplicate sentence per language
        assert report.dedup["de"].dropped == 1
        assert report.dedup["en"].dropped == 1

        for path in outputs.values():
            text = path.read_text(encoding="utf-8")
            for line in text.splitlines():
                assert line == line.lower()
                assert "\t" not in line and "  " not in line

        second_in = tmp_path / "docs2"
        second_in.mkdir()
        for lang in ("de", "en"):
            (second_in / f"again_{lang}.txt").write_text(
                (out1 / f"corpus.{lang}.txt").read_text(encoding="utf-8"),
                encoding="utf-8",
            )
        out2 = tmp_path / "out2"
        run_pipeline(second_in, config, out2)
        for lang in ("de", "en"):
            assert (out2 / f"corpus.{lang}.txt").read_bytes() == (
                out1 / f"corpus.{lang}.txt"
            ).read_bytes()


def test_criterion_09_language_routing_accuracy(langid_fixture_path):
    with _criterion(9, "default classifier >=95% on the 200-line labeled fixture"):
        from embeval.langid import classify_line_language

        rows = [
            line.split("\t")
            for line in langid_fixture_path.read_text(encoding="utf-8").splitlines()
        ]
        assert len(rows) == 200
        correct = sum(1 for lang, text in rows if classify_line_language(text)[0] == lang)
        assert correct / len(rows) >= 0.95


def _build_vec_from_corpus(corpus_path: Path, vec_path: Path, seed: int) -> None:
    vocab: list[str] = []
    seen = set()
    for line in corpus_path.read_text(encoding="utf-8").splitlines():
        for token in line.split(" "):
            if token and token not in seen:
                seen.add(token)
                vocab.append(token)
    rng = np.random.default_rng(seed)
    save_vec(vocab, rng.standard_normal((len(vocab), 16)), vec_path)


def test_criterion_10_end_to_end(tmp_path):
    with _criterion(10, "clean -> vec -> coverage/diversity/relations, byte-identical rerun"):
        start = time.perf_counter()
        docs = _write_docs(tmp_path)
        thesaurus = DATA_DIR / "thesaurus_mini.nt"
        config_file = tmp_path / "pipeline.conf"
        config_file.write_text("cover_delimiter=^---$\n", encoding="utf-8")

        clean_out = tmp_path / "cleaned"
        assert main([
            "clean", "--input", str(docs), "--out", str(clean_out),
            "--config", str(config_file),
        ]) == 0
        assert (clean_out / "clean.manifest.json").is_file()

        vec_a = tmp_path / "domain_mini.vec"
        vec_b = tmp_path / "general_mini.vec"
        _build_vec_from_corpus(clean_out / "corpus.de.txt", vec_a, seed=1)
        _build_vec_from_corpus(clean_out / "corpus.de.txt", vec_b, seed=2)

        runs = []
        for run in (1, 2):
            base = tmp_path / f"run{run}"
            assert main([
                "coverage", "--model", str(vec_a), "--thesaurus", str(thesaurus),
                "--out", str(base / "coverage"),
            ]) == 0
            assert main([
                "diversity", "--model", str(vec_a), "--model", str(vec_b),
                "--thesaurus", str(thesaurus), "--k", "3", "--k", "5",
                "--out", str(base / "diversity"),
            ]) == 0
            assert main([
                "relations", "--model", str(vec_a), "--thesaurus", str(thesaurus),
                "--k", "3", "--k", "5", "--single-word-only",
                "--out", str(base / "relations"),
            ]) == 0
            runs.append(base)

        # table shapes
        cov_md = (runs[0] / "coverage" / "coverage.md").read_text(encoding="utf-8")
        assert "Vocab size" in cov_md and "s=0.9" in cov_md and "s=1" in cov_md
        div_md = (runs[0] / "diversity" / "diversity.md").read_text(encoding="utf-8")
        assert "top-3" in div_md and "top-5" in div_md and " - " in div_md
        rel_md = (runs[0] / "relations" / "relations.md").read_text(encoding="utf-8")
        assert "bro" in rel_md and "nar" in rel_md and "rel" in rel_md and "alt" in rel_md

        # every command wrote a manifest with digested inputs
        for sub, name in (("coverage", "coverage"), ("diversity", "diversity"),
                          ("relations", "relations")):
            manifest = json.loads(
                (runs[0] / sub / f"{name}.manifest.json").read_text(encoding="utf-8")
            )
            assert manifest["inputs"] and all("sha256" in i for i in manifest["inputs"])

        # repeated invocation is byte-identical for all tables
        for sub in ("coverage", "diversity", "relations"):
            for suffix in ("csv", "md"):
                f1 = runs[0] / sub / f"{sub}.{suffix}"
                f2 = runs[1] / sub / f"{sub}.{suffix}"
                assert f1.read_bytes() == f2.read_bytes(), f"{sub}.{suffix} differs"

        assert time.perf_counter() - start < 60.0


def _perturb(rng: random.Random, word: str) -> str:
    pos = rng.randrange(len(word))
    return word[:pos] + rng.choice("abcdefgh") + word[pos + 1 :]


def test_criterion_11_pruning_soundness_and_speed():
    with _criterion(11, "pruned best_match == unpruned scan on 100 vocabularies; >=5x at s=0.95"):
        rng = random.Random(1111)
        alphabet = "abcdefghijklmnoprstuvz"
        pruned_time = 0.0
        unpruned_time = 0.0
        for trial in range(100):
            words = set()
            while len(words) < 10_000:
                words.add(
                    "".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 10)))
                )
            vocab = VocabIndex(sorted(words))
            query = _perturb(rng, rng.choice(vocab.tokens))
            for s in (0.9, 0.95):
                t0 = time.perf_counter()
                fast = best_match(query, vocab, s)
                t1 = time.perf_counter()
                slow = scan_match(query, vocab, s)
                t2 = time.perf_counter()
                if s == 0.95:
                    pruned_time += t1 - t0
                    unpruned_time += t2 - t1
                assert fast == slow
        assert unpruned_time >= 5.0 * pruned_time, (pruned_time, unpruned_time)
