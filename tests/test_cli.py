import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from embeval.cli import main
from embeval.corpus import recount_stats
from embeval.neighbors import queryable, top_k
from embeval.vectors import load_vec
from conftest import DATA_DIR, coverage_at, save_vec


def _f(c: float) -> float:
    return math.sqrt(1.0 - c * c)


FIXTURE_VOCAB = [
    "sozialstruktur", "gesellschaft", "armut", "chancengleichheit",
    "verarmung", "macht", "staat", "bildung",
]

FIXTURE_ROWS = [
    [1, 0, 0, 0, 0, 0],
    [0.99, 0, _f(0.99), 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0.98, 0, _f(0.98), 0, 0],
    [0, 0.90, 0, 0, _f(0.90), 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, _f(0.95), 0, 0, 0.95],
    [0, 0.3, 0, _f(0.3), 0, 0],
]


def write_fixture_model(path: Path, name: str = "fixture", flip: bool = False) -> None:
    rows = [list(reversed(r)) for r in FIXTURE_ROWS] if flip else FIXTURE_ROWS
    save_vec(FIXTURE_VOCAB, rows, path)


@pytest.fixture
def model_path(tmp_path) -> Path:
    path = tmp_path / "fixture.vec"
    write_fixture_model(path)
    return path


@pytest.fixture
def thesaurus_path() -> Path:
    return DATA_DIR / "thesaurus_mini.nt"


def test_coverage_matches_metrics_oracle(tmp_path, model_path, thesaurus_path):
    out = tmp_path / "cov"
    rc = main([
        "coverage", "--model", str(model_path), "--thesaurus", str(thesaurus_path),
        "--s", "1.0", "--out", str(out),
    ])
    assert rc == 0
    csv_text = (out / "coverage.csv").read_text(encoding="utf-8")
    # direct computation on the same inputs
    from embeval.thesaurus import keywords, parse_ntriples_skos

    model = load_vec(model_path, "fixture")
    th = parse_ntriples_skos(thesaurus_path)
    expected = coverage_at(model, keywords(th, "de"), 1.0)
    assert expected.n_covered == 5 and expected.n_keywords == 8
    assert f",{expected.n_covered},62.50" in csv_text
    assert (out / "coverage.manifest.json").is_file()


def test_coverage_table_layout(tmp_path, model_path, thesaurus_path):
    out = tmp_path / "cov"
    rc = main([
        "coverage", "--model", str(model_path), "--thesaurus", str(thesaurus_path),
        "--s", "0.9", "--s", "0.95", "--s", "1.0", "--out", str(out),
    ])
    assert rc == 0
    md = (out / "coverage.md").read_text(encoding="utf-8")
    lines = [l for l in md.splitlines() if l.startswith("|")]
    assert "fixture" in lines[0]
    assert lines[2].startswith("| Vocab size")
    assert "| 8" in lines[2]
    assert [l.split("|")[1].strip() for l in lines[3:6]] == ["s=0.9", "s=0.95", "s=1.0"]


def test_coverage_rejects_bad_s_before_io(tmp_path, capsys):
    out = tmp_path / "cov"
    rc = main([
        "coverage", "--model", str(tmp_path / "missing.vec"),
        "--thesaurus", str(tmp_path / "missing.nt"),
        "--s", "1.5", "--out", str(out),
    ])
    assert rc == 2
    assert "s must be in (0, 1]" in capsys.readouterr().err
    assert not (out / "coverage.csv").exists()


def test_coverage_missing_model_is_argument_error(tmp_path, thesaurus_path):
    rc = main([
        "coverage", "--model", str(tmp_path / "nope.vec"),
        "--thesaurus", str(thesaurus_path), "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_malformed_vec_is_parse_error(tmp_path, thesaurus_path):
    bad = tmp_path / "bad.vec"
    bad.write_text("not a header\n", encoding="utf-8")
    rc = main([
        "coverage", "--model", str(bad), "--thesaurus", str(thesaurus_path),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3


def test_diversity_needs_two_models(tmp_path, model_path, thesaurus_path):
    rc = main([
        "diversity", "--model", str(model_path), "--thesaurus", str(thesaurus_path),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_diversity_matrix_structure(tmp_path, thesaurus_path):
    a = tmp_path / "alpha.vec"
    b = tmp_path / "beta.vec"
    write_fixture_model(a, "alpha")
    write_fixture_model(b, "beta", flip=True)
    out = tmp_path / "div"
    rc = main([
        "diversity", "--model", str(a), "--model", str(b),
        "--thesaurus", str(thesaurus_path), "--k", "10", "--out", str(out),
    ])
    assert rc == 0
    md = (out / "diversity.md").read_text(encoding="utf-8")
    rows = [l for l in md.splitlines() if l.startswith("|")]
    assert "alpha" in rows[0] and "beta" in rows[0]
    # diagonal rendered as "-"
    assert rows[2].split("|")[2].strip() == "-"
    assert rows[3].split("|")[3].strip() == "-"
    csv_lines = (out / "diversity.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == (
        "k,model_a,model_b,n_total,n_evaluated,n_disjoint,"
        "n_skipped_multiword,n_skipped_oov,n_skipped_empty,d,denominator"
    )
    assert len(csv_lines) == 2  # one unordered pair


def test_diversity_cache_reuse_is_byte_identical(tmp_path, thesaurus_path):
    a = tmp_path / "alpha.vec"
    b = tmp_path / "beta.vec"
    write_fixture_model(a, "alpha")
    write_fixture_model(b, "beta", flip=True)
    cache = tmp_path / "cache"
    args = [
        "diversity", "--model", str(a), "--model", str(b),
        "--thesaurus", str(thesaurus_path), "--k", "5",
        "--cache-dir", str(cache),
    ]
    out1 = tmp_path / "div1"
    out2 = tmp_path / "div2"
    assert main(args + ["--out", str(out1)]) == 0
    assert list(cache.glob("*.neighbors.tsv"))
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "diversity.csv").read_bytes() == (out2 / "diversity.csv").read_bytes()
    assert (out1 / "diversity.md").read_bytes() == (out2 / "diversity.md").read_bytes()


def _per_rank_layout(header: dict, body: list[str], model) -> tuple[dict, list[str]]:
    # the layout earlier versions wrote: no format in the header, then
    # query TAB rank TAB neighbor TAB score per entry
    lines = [f"{query}\t{rank}\t{token}\t{score:.9f}"
             for query in model.vocab if queryable(model, query)
             for rank, (token, score) in enumerate(top_k(model, query, header["k"]), 1)]
    return {key: header[key] for key in ("digest", "dim", "k", "model")}, lines


# (header, lines after it, model) of a file that serves the run -> a
# well-formed file that cannot serve it
_CACHES_THAT_CANNOT_SERVE = {
    "another-digest": lambda header, body, model: ({**header, "digest": "0" * 64}, body),
    "format-tokens": lambda header, body, model: ({**header, "format": "tokens"}, body),
    "per-rank-layout": _per_rank_layout,
    "missing-query": lambda header, body, model: (header, body[1:]),
    "smaller-capacity": lambda header, body, model: (
        {**header, "k": 2}, ["\t".join(line.split("\t")[:3]) for line in body]),
}


@pytest.mark.parametrize("kind", sorted(_CACHES_THAT_CANNOT_SERVE))
def test_diversity_rebuilds_a_cache_that_cannot_serve_the_run(tmp_path, thesaurus_path,
                                                              monkeypatch, caplog, kind):
    monkeypatch.delenv("EMBEVAL_CACHE_DIR", raising=False)
    models = []
    for name, flip in (("alpha", False), ("beta", True)):
        write_fixture_model(tmp_path / f"{name}.vec", name, flip=flip)
        models += ["--model", str(tmp_path / f"{name}.vec")]
    args = ["diversity", *models, "--thesaurus", str(thesaurus_path), "--k", "5"]
    cache = tmp_path / "cache"
    cached = args + ["--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
    assert main(cached + ["--out", str(tmp_path / "first")]) == 0
    paths = [cache / "alpha.neighbors.tsv", cache / "beta.neighbors.tsv"]
    built = [path.read_bytes() for path in paths]
    for path, name in zip(paths, ("alpha", "beta")):
        header, *body = path.read_text(encoding="utf-8").splitlines()
        assert body
        model = load_vec(tmp_path / f"{name}.vec", name)
        header, body = _CACHES_THAT_CANNOT_SERVE[kind](json.loads(header), body, model)
        path.write_text("\n".join([json.dumps(header, sort_keys=True), *body]) + "\n",
                        encoding="utf-8")

    with caplog.at_level("DEBUG", logger="embeval.neighbors"):
        assert main(cached + ["--out", str(tmp_path / "rebuilt")]) == 0
    assert [r.getMessage() for r in caplog.records if "rebuilding" in r.getMessage()] == [
        f"{name}: rebuilding {path} at k=5" for name, path in zip(("alpha", "beta"), paths)]
    assert _diversity_tables(tmp_path / "rebuilt") == _diversity_tables(tmp_path / "fresh")
    assert [path.read_bytes() for path in paths] == built

    def refuse(*args, **kwargs):
        raise AssertionError("the rebuilt cache was not used")

    monkeypatch.setattr("embeval.neighbors.top_k_batch", refuse)
    assert main(cached + ["--out", str(tmp_path / "warm")]) == 0
    assert _diversity_tables(tmp_path / "warm") == _diversity_tables(tmp_path / "fresh")
    assert [path.read_bytes() for path in paths] == built


def _diversity_tables(out: Path) -> tuple[bytes, bytes]:
    return (out / "diversity.csv").read_bytes(), (out / "diversity.md").read_bytes()


def test_diversity_cache_records_empty_neighborhoods(tmp_path, thesaurus_path):
    # "armut" is the only real word: its neighborhood is empty in both models
    for name in ("alpha", "beta"):
        save_vec(["armut", "null", "nichts"], [[1, 0], [0, 0], [0, 0]], tmp_path / f"{name}.vec")
    args = [
        "diversity", "--model", str(tmp_path / "alpha.vec"), "--model", str(tmp_path / "beta.vec"),
        "--thesaurus", str(thesaurus_path), "--k", "5", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args + ["--out", str(tmp_path / "d1")]) == 0
    assert main(args + ["--out", str(tmp_path / "d2")]) == 0
    assert _diversity_tables(tmp_path / "d1") == _diversity_tables(tmp_path / "d2")
    row = (tmp_path / "d1" / "diversity.csv").read_text(encoding="utf-8").splitlines()[1]
    assert row.split(",")[8] == "1"  # n_skipped_empty: "armut"


def test_diversity_cache_capacity_serves_smaller_k(tmp_path, thesaurus_path):
    rng = np.random.default_rng(5)
    vocab = FIXTURE_VOCAB + [f"wort{i}" for i in range(30)]
    for name in ("alpha", "beta"):
        save_vec(vocab, rng.standard_normal((len(vocab), 4)), tmp_path / f"{name}.vec")
    cache = tmp_path / "cache"

    def run(k: str, out: str, cache_dir: Path) -> int:
        return main([
            "diversity", "--model", str(tmp_path / "alpha.vec"),
            "--model", str(tmp_path / "beta.vec"), "--thesaurus", str(thesaurus_path),
            "--k", k, "--cache-dir", str(cache_dir), "--out", str(tmp_path / out),
        ])

    assert run("5", "k5", cache) == 0
    # a larger k rebuilds the smaller-capacity files
    assert run("20", "k20", cache) == 0
    assert run("20", "fresh20", tmp_path / "fresh20") == 0
    assert _diversity_tables(tmp_path / "k20") == _diversity_tables(tmp_path / "fresh20")
    files = sorted(cache.glob("*.neighbors.tsv"))
    assert [f.name for f in files] == ["alpha.neighbors.tsv", "beta.neighbors.tsv"]
    before = [f.read_bytes() for f in files]
    assert all(json.loads(b.split(b"\n")[0])["k"] == 20 for b in before)
    # a smaller k is served by the K=20 files, which stay as they are
    assert run("10", "k10", cache) == 0
    assert [f.read_bytes() for f in files] == before
    assert run("10", "fresh10", tmp_path / "fresh10") == 0
    assert _diversity_tables(tmp_path / "k10") == _diversity_tables(tmp_path / "fresh10")


def test_cache_dir_from_environment(tmp_path, thesaurus_path, monkeypatch):
    a = tmp_path / "alpha.vec"
    b = tmp_path / "beta.vec"
    write_fixture_model(a, "alpha")
    write_fixture_model(b, "beta", flip=True)
    env_cache = tmp_path / "env_cache"
    monkeypatch.setenv("EMBEVAL_CACHE_DIR", str(env_cache))
    rc = main([
        "diversity", "--model", str(a), "--model", str(b),
        "--thesaurus", str(thesaurus_path), "--k", "3", "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    assert list(env_cache.glob("*.neighbors.tsv"))


def test_relations_hand_computed_values(tmp_path, model_path, thesaurus_path):
    out = tmp_path / "rel"
    rc = main([
        "relations", "--model", str(model_path), "--thesaurus", str(thesaurus_path),
        "--k", "1", "--k", "5", "--single-word-only", "--out", str(out),
    ])
    assert rc == 0
    csv_lines = (out / "relations.csv").read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in csv_lines[1:]:
        k, model, relation, n_pairs, n_found, n_oov, policy, r = line.split(",")
        rows[(int(k), relation)] = (int(n_pairs), int(n_found), r)
    # single-word pairs: bro (sozialstruktur->gesellschaft) found at rank 1,
    # nar (gesellschaft->sozialstruktur) at rank 1, rel (armut->chancengleichheit)
    # at rank 1, alt (armut->verarmung) at rank 2
    assert rows[(1, "bro")] == (1, 1, "100.00")
    assert rows[(1, "nar")] == (1, 1, "100.00")
    assert rows[(1, "rel")] == (1, 1, "100.00")
    assert rows[(1, "alt")] == (1, 0, "0.00")
    assert rows[(5, "alt")] == (1, 1, "100.00")
    md = (out / "relations.md").read_text(encoding="utf-8")
    header = next(l for l in md.splitlines() if l.startswith("| top-1"))
    assert [c.strip() for c in header.split("|")[2:6]] == ["bro", "nar", "rel", "alt"]


def test_relations_empty_relation_reports_zero(tmp_path, model_path):
    # a thesaurus with no altLabel pairs at all
    nt = tmp_path / "tiny.nt"
    nt.write_text(
        '<http://ex/a> <http://www.w3.org/2004/02/skos/core#prefLabel> "Armut"@de .\n'
        '<http://ex/b> <http://www.w3.org/2004/02/skos/core#prefLabel> "Macht"@de .\n'
        '<http://ex/a> <http://www.w3.org/2004/02/skos/core#broader> <http://ex/b> .\n',
        encoding="utf-8",
    )
    out = tmp_path / "rel"
    rc = main([
        "relations", "--model", str(model_path), "--thesaurus", str(nt),
        "--k", "3", "--out", str(out),
    ])
    assert rc == 0
    csv_lines = (out / "relations.csv").read_text(encoding="utf-8").splitlines()
    alt = next(l for l in csv_lines[1:] if ",alt," in l)
    fields = alt.split(",")
    assert fields[3] == "0" and fields[-1] == "0.00"
    md = (out / "relations.md").read_text(encoding="utf-8")
    assert "0.00 (n=0)" in md


def test_neighbors_prints_descending_scores(tmp_path, model_path, capsys):
    out = tmp_path / "nb"
    rc = main([
        "neighbors", "--model", str(model_path), "--word", "armut", "--k", "3",
        "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "chancengleichheit" in printed
    csv_lines = (out / "neighbors.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "rank,token,score"
    data = [l.split(",") for l in csv_lines[1:]]
    assert [d[1] for d in data] == ["chancengleichheit", "verarmung", "bildung"]
    scores = [float(d[2]) for d in data]
    assert scores == sorted(scores, reverse=True)
    assert scores[0] == pytest.approx(0.98, abs=1e-9)


def test_neighbors_unknown_word(tmp_path, model_path):
    rc = main([
        "neighbors", "--model", str(model_path), "--word", "fehlt", "--k", "3",
        "--out", str(tmp_path / "nb"),
    ])
    assert rc == 2


def test_clean_and_stats_roundtrip(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text(
        "Deckblatt\n---\nDie Gesellschaft wandelt sich schnell.\n"
        "Armut bleibt ein zentrales Problem der Sozialpolitik.\n",
        encoding="utf-8",
    )
    (docs / "b.txt").write_text(
        "Cover\n---\nThe welfare state is changing rapidly.\n"
        "Die Gesellschaft wandelt sich schnell.\n",
        encoding="utf-8",
    )
    config = tmp_path / "pipeline.conf"
    config.write_text("cover_delimiter=^---$\n", encoding="utf-8")
    out = tmp_path / "cleaned"
    rc = main([
        "clean", "--input", str(docs), "--out", str(out), "--config", str(config),
    ])
    assert rc == 0
    de = (out / "corpus.de.txt").read_text(encoding="utf-8")
    assert "die gesellschaft wandelt sich schnell .\n" in de
    assert de.count("die gesellschaft wandelt sich schnell .") == 1  # deduplicated
    assert (out / "clean.manifest.json").is_file()
    assert (out / "clean_report.json").is_file()
    assert (out / "corpus_stats.csv").is_file()

    stats_out = tmp_path / "stats"
    rc = main([
        "stats", str(out / "corpus.de.txt"), str(out / "corpus.en.txt"),
        "--out", str(stats_out),
    ])
    assert rc == 0
    recounted = {s.lang: s for s in recount_stats([
        out / "corpus.de.txt", out / "corpus.en.txt",
    ])}
    csv_lines = (stats_out / "stats.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "lang,tokens,vocabulary,files,megabytes"
    for line in csv_lines[1:]:
        lang, tokens, vocab, files, mb = line.split(",")
        assert int(tokens) == recounted[lang].tokens
        assert int(vocab) == recounted[lang].vocabulary


def test_clean_and_stats_load_no_numpy(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("Die Gesellschaft wandelt sich seit 3 Jahren.\n", encoding="utf-8")
    out = tmp_path / "cleaned"
    script = (
        "import sys\n"
        "from embeval.cli import main\n"
        f"assert main(['clean', '--input', {str(docs)!r}, '--out', {str(out)!r}]) == 0\n"
        f"assert main(['stats', {str(out / 'corpus.de.txt')!r}, '--out', {str(tmp_path / 's')!r}]) == 0\n"
        "from embeval.thesaurus import _line_re\n"
        # the N-Triples line grammar is compiled by the first parse only
        "print(_line_re.cache_info().currsize)\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))\n"
    )
    import embeval

    env = {**os.environ, "PYTHONPATH": str(Path(embeval.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["0", "[]"]


def test_clean_imports_no_multiprocessing(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    for i in range(3):
        (docs / f"d{i}.txt").write_text(f"Die Gesellschaft wandelt sich seit {i} Jahren.\n", encoding="utf-8")
    script = (
        "import sys\n"
        "from embeval.cli import main\n"
        f"assert main(['clean', '--input', {str(docs)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    import embeval

    env = {**os.environ, "PYTHONPATH": str(Path(embeval.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_certified_diversity_loads_no_rational_arithmetic(tmp_path, thesaurus_path):
    # exact re-ranking needs rationals only for rows with tiny components,
    # and these Gaussian rows certify every query besides
    rng = np.random.default_rng(8)
    vocab = FIXTURE_VOCAB + [f"wort{i}" for i in range(30)]
    models = []
    for name in ("alpha", "beta"):
        save_vec(vocab, rng.standard_normal((len(vocab), 16)), tmp_path / f"{name}.vec")
        models += ["--model", str(tmp_path / f"{name}.vec")]
    argv = ["diversity", *models, "--thesaurus", str(thesaurus_path), "--k", "10",
            "--out", str(tmp_path / "d")]
    script = (
        "import logging, sys\n"
        "logging.basicConfig(level=logging.DEBUG, format='%(message)s')\n"
        "from embeval.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m in ('fractions', 'decimal')))\n"
    )
    import embeval

    env = {**os.environ, "PYTHONPATH": str(Path(embeval.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    searches = [line for line in result.stderr.splitlines() if ": searched " in line]
    assert len(searches) == 2
    assert all(line.endswith(" certified, 0 re-ranked exactly over 0 boundary rows") for line in searches)


def test_package_exports_resolve_to_their_modules():
    import importlib

    import embeval

    for name in embeval.__all__:
        if name != "__version__":
            module = importlib.import_module(f"embeval.{embeval._EXPORTS[name]}")
            assert getattr(embeval, name) is getattr(module, name)


def test_parser_choices_match_metric_policies():
    from embeval.cli import DENOMINATOR_CHOICES, OOV_CHOICES
    from embeval.metrics import DENOMINATOR_POLICIES, OOV_POLICIES

    assert DENOMINATOR_CHOICES == DENOMINATOR_POLICIES
    assert OOV_CHOICES == OOV_POLICIES


def test_rerun_is_byte_identical_and_manifest_stable(tmp_path, model_path, thesaurus_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        rc = main([
            "coverage", "--model", str(model_path), "--thesaurus", str(thesaurus_path),
            "--out", str(out),
        ])
        assert rc == 0
    assert (out1 / "coverage.csv").read_bytes() == (out2 / "coverage.csv").read_bytes()
    assert (out1 / "coverage.md").read_bytes() == (out2 / "coverage.md").read_bytes()
    m1 = json.loads((out1 / "coverage.manifest.json").read_text())
    m2 = json.loads((out2 / "coverage.manifest.json").read_text())
    m1.pop("duration_seconds")
    m2.pop("duration_seconds")
    assert m1 == m2
    assert m1["inputs"] and all("sha256" in i for i in m1["inputs"])


def test_diversity_denominator_flag(tmp_path, thesaurus_path):
    a = tmp_path / "alpha.vec"
    b = tmp_path / "beta.vec"
    write_fixture_model(a, "alpha")
    write_fixture_model(b, "beta", flip=True)
    out = tmp_path / "div"
    rc = main([
        "diversity", "--model", str(a), "--model", str(b),
        "--thesaurus", str(thesaurus_path), "--k", "3",
        "--denominator", "total", "--out", str(out),
    ])
    assert rc == 0
    line = (out / "diversity.csv").read_text(encoding="utf-8").splitlines()[1]
    assert line.endswith(",total")


def test_relations_oov_skip_flag(tmp_path, model_path, thesaurus_path):
    out = tmp_path / "rel"
    rc = main([
        "relations", "--model", str(model_path), "--thesaurus", str(thesaurus_path),
        "--k", "5", "--oov-policy", "skip", "--out", str(out),
    ])
    assert rc == 0
    csv_lines = (out / "relations.csv").read_text(encoding="utf-8").splitlines()
    assert all(",skip," in l for l in csv_lines[1:] if l)
    # without the single-word filter the multiword descriptors are OOV; the
    # skip policy renormalizes, so found pairs score against the remainder
    bro = next(l for l in csv_lines[1:] if ",bro," in l)
    fields = bro.split(",")
    assert fields[3] == "3" and fields[5] == "2"  # n_pairs=3, OOV descriptors=2
    assert fields[-1] == "100.00"


def test_coverage_no_lowercase_flag(tmp_path, thesaurus_path):
    # model with capitalized vocabulary: only the case-preserving run matches
    path = tmp_path / "cased.vec"
    save_vec(["Armut", "Gesellschaft"], [[1, 0], [0, 1]], path)
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    assert main([
        "coverage", "--model", str(path), "--thesaurus", str(thesaurus_path),
        "--s", "1.0", "--out", str(out1),
    ]) == 0
    assert main([
        "coverage", "--model", str(path), "--thesaurus", str(thesaurus_path),
        "--s", "1.0", "--no-lowercase", "--out", str(out2),
    ]) == 0
    lowered = (out1 / "coverage.csv").read_text(encoding="utf-8").splitlines()[1]
    preserved = (out2 / "coverage.csv").read_text(encoding="utf-8").splitlines()[1]
    assert lowered.split(",")[4] == "0"
    assert preserved.split(",")[4] == "2"


def test_coverage_warns_once_per_label_without_tokens(tmp_path, model_path, caplog):
    tsv = tmp_path / "thesaurus.tsv"
    tsv.write_text(
        "subject\tpredicate\tobject\tlang\n"
        "c1\tprefLabel\t–\tde\n"
        "c2\tprefLabel\tArmut\tde\n",
        encoding="utf-8",
    )
    other = tmp_path / "other.vec"
    write_fixture_model(other, flip=True)
    with caplog.at_level("WARNING"):
        assert main(["coverage", "--model", str(model_path), "--model", str(other),
                     "--thesaurus", str(tsv), "--out", str(tmp_path / "cov")]) == 0
    warnings = [r.getMessage() for r in caplog.records if "no tokens" in r.getMessage()]
    # two models and three thresholds read the label, which is named once
    assert warnings == ["keyword '–' reduced to no tokens; counted as not covered"]
    rows = (tmp_path / "cov" / "coverage.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[3:5] for row in rows] == [["2", "1"]] * 6


def test_manifest_records_zero_vectors(tmp_path, thesaurus_path):
    path = tmp_path / "zeroes.vec"
    path.write_text("2 2\na 0 0\nb 1 0\n", encoding="utf-8")
    out = tmp_path / "cov"
    assert main([
        "coverage", "--model", str(path), "--thesaurus", str(thesaurus_path),
        "--out", str(out),
    ]) == 0
    manifest = json.loads((out / "coverage.manifest.json").read_text())
    assert manifest["parameters"]["zero_vectors"] == {"zeroes": 1}


def test_bad_config_is_parse_error(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("Die Gesellschaft wandelt sich.", encoding="utf-8")
    config = tmp_path / "bad.conf"
    config.write_text("confidence_threshold=not_a_number\n", encoding="utf-8")
    rc = main(["clean", "--input", str(docs), "--out", str(tmp_path / "o"),
               "--config", str(config)])
    assert rc == 3


def test_invalid_cover_delimiter_is_parse_error(tmp_path, capsys):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("Die Gesellschaft wandelt sich.", encoding="utf-8")
    config = tmp_path / "bad.conf"
    config.write_text("languages = de,en\ncover_delimiter = ([\n", encoding="utf-8")
    rc = main(["clean", "--input", str(docs), "--out", str(tmp_path / "o"),
               "--config", str(config)])
    assert rc == 3
    assert "line 2: cover_delimiter is not a valid regular expression" in capsys.readouterr().err


# the classifier routes lines to de and en only; a repeated language wrote
# two rows for it, and an unknown one, or none at all, silently received
# no line
@pytest.mark.parametrize("languages", ["de,de", "en, fr", ""], ids=["repeated", "unknown", "none"])
def test_config_languages_must_be_distinct_and_known(tmp_path, capsys, languages):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("Die Gesellschaft wandelt sich.", encoding="utf-8")
    config = tmp_path / "bad.conf"
    config.write_text(f"# languages\nlanguages = {languages}\n", encoding="utf-8")
    rc = main(["clean", "--input", str(docs), "--out", str(tmp_path / "o"),
               "--config", str(config)])
    assert rc == 3
    message = f"line 2: languages must be one or more distinct of de, en, got {languages!r}"
    assert f"{config}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "corpus_stats.csv").exists()


@pytest.mark.parametrize("command, metric", [
    ("coverage", "coverage"),
    ("diversity", "diversity_matrix"),
    ("relations", "relational_coverage"),
], ids=["coverage", "diversity", "relations"])
def test_internal_error_exits_four(tmp_path, model_path, thesaurus_path, monkeypatch, capsys,
                                   command, metric):
    import embeval.metrics as metrics_module

    def boom(*args, **kwargs):
        raise RuntimeError("simulated fault")

    # each command looks its metric up in embeval.metrics when it runs, so
    # the function found there is the one called
    monkeypatch.setattr(metrics_module, metric, boom)
    flipped = tmp_path / "flipped.vec"
    write_fixture_model(flipped, "flipped", flip=True)
    rc = main([
        command, "--model", str(model_path), "--model", str(flipped),
        "--thesaurus", str(thesaurus_path), "--out", str(tmp_path / "o"),
    ])
    assert rc == 4
    assert "simulated fault" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_unknown_command_exits_two():
    assert main(["frobnicate"]) == 2


def test_absurd_vec_dimension_is_parse_error(tmp_path, thesaurus_path):
    bad = tmp_path / "bad.vec"
    bad.write_bytes(b"1 4611686018427387904\na 1\n")
    rc = main([
        "coverage", "--model", str(bad), "--thesaurus", str(thesaurus_path),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3


def test_manifest_hashes_each_model_file_once(tmp_path, model_path, thesaurus_path, monkeypatch):
    from embeval import report

    hashed = []
    real = report.sha256_file
    monkeypatch.setattr(report, "sha256_file", lambda path: hashed.append(str(path)) or real(path))
    out = tmp_path / "o"
    rc = main([
        "coverage", "--model", str(model_path), "--thesaurus", str(thesaurus_path),
        "--out", str(out),
    ])
    assert rc == 0
    assert hashed == [str(thesaurus_path)]
    inputs = json.loads((out / "coverage.manifest.json").read_text())["inputs"]
    assert inputs == [
        {"path": str(model_path), "sha256": hashlib.sha256(model_path.read_bytes()).hexdigest()},
        {"path": str(thesaurus_path), "sha256": real(thesaurus_path)},
    ]


def test_vec_token_holding_other_whitespace_is_parse_error(tmp_path, thesaurus_path, capsys):
    bad = tmp_path / "bad.vec"
    bad.write_bytes("2 1\na 1\nb\u00a0c 2\n".encode("utf-8"))
    rc = main([
        "coverage", "--model", str(bad), "--thesaurus", str(thesaurus_path),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    assert "line 3: token 'b\\xa0c' contains whitespace" in capsys.readouterr().err


def test_coverage_matches_each_token_once_per_model(tmp_path, model_path, thesaurus_path, monkeypatch):
    import embeval.metrics as metrics_module
    from embeval.stringsim import best_match

    calls = []

    def counting(token, index, s):
        calls.append((token, s))
        return best_match(token, index, s)

    monkeypatch.setattr(metrics_module, "best_match", counting)
    flipped = tmp_path / "flipped.vec"
    write_fixture_model(flipped, "flipped", flip=True)
    rc = main([
        "coverage", "--model", str(model_path), "--model", str(flipped),
        "--thesaurus", str(thesaurus_path),
        "--s", "1.0", "--s", "0.9", "--s", "0.95", "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    # both models share one vocabulary, so they match the same tokens
    half = len(calls) // 2
    assert half > 0 and calls[:half] == calls[half:]
    assert {s for _, s in calls} == {0.9}
    assert len({t for t, _ in calls[:half]}) == half


# sha256 of the CSV and Markdown tables the vector commands write for the
# mini fixture with the fixture and flipped models, recorded before the
# three commands shared one skeleton.
PINNED_TABLES = {
    "coverage": (["--s", "0.8", "--s", "0.93"], {
        "csv": "07693605089536b350eb49137ce3d86ab4e675b5daf7d40fd4956b3ebbc90966",
        "md": "1e0578d2292a231ea92aa5e85afcad9003f8b6eb34f6e7818b81adc50774e322",
    }),
    "diversity": (["--k", "2", "--k", "4"], {
        "csv": "b7a62a2e99be125352da2cac898d81c2d7e180c0f939c164bb4d10d299247358",
        "md": "f1ccf9513bdfa0c653addb5c7c800e442d99fea6c8a311f0c3c961d1c531d7f2",
    }),
    "relations": (["--k", "2", "--k", "4"], {
        "csv": "9df5ec962835187ed3f4d918b1d463d7b213d9d5b9aa80223def5758aa9bd38a",
        "md": "5c6408b9c5c320952dbd398601427a80edec0622c5827d956c274118593a3d3c",
    }),
}


@pytest.mark.parametrize("command", sorted(PINNED_TABLES))
def test_vector_command_tables_are_pinned(tmp_path, model_path, thesaurus_path, command):
    flipped = tmp_path / "flipped.vec"
    write_fixture_model(flipped, "flipped", flip=True)
    extra, digests = PINNED_TABLES[command]
    out = tmp_path / "o"
    assert main([
        command, "--model", str(model_path), "--model", str(flipped),
        "--thesaurus", str(thesaurus_path), *extra, "--out", str(out),
    ]) == 0
    got = {ext: hashlib.sha256((out / f"{command}.{ext}").read_bytes()).hexdigest() for ext in digests}
    assert got == digests


# A mixed-case fixture: "Armut" and "armut" have different rows, and the
# swapped model trades the rows of tokens that differ only in case, so
# neighbors in the two models can differ only in case.
CASED_VOCAB = ["Armut", "armut", "Staat", "staat", "Macht", "macht", "Bildung", "verarmung",
               "Gesellschaft"]
CASED_ROWS = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0.9, 0.1, 0.3, 0],
    [0.1, 0.9, 0, 0.3],
    [0.2, 0.8, 0.5, 0.1],
    [0.8, 0.2, 0.1, 0.5],
    [0, 0, 1, 0],
    [0.5, 0.5, 0, 0.2],
    [0, 0.3, 0.2, 1],
]
_CASE_SWAP = {"Staat": "staat", "staat": "Staat", "Macht": "macht", "macht": "Macht",
              "Bildung": "Gesellschaft", "Gesellschaft": "Bildung"}
CASED_THESAURUS = (
    "subject\tpredicate\tobject\tlang\n"
    "c1\tprefLabel\tArmut\tde\n"
    "c1\taltLabel\tVerarmung\tde\n"
    "c2\tprefLabel\tStaat\tde\n"
    "c3\tprefLabel\tMacht\tde\n"
    "c4\tprefLabel\tBildung\tde\n"
    "c5\tprefLabel\tGesellschaft\tde\n"
    "c1\trelated\tc2\t\n"
    "c3\tbroader\tc2\t\n"
    "c4\trelated\tc5\t\n"
)

# sha256 of the tables the vector commands write for the mixed-case
# fixture, by default and with --no-lowercase, recorded before the metrics
# took token tuples.
CASED_TABLES = {
    "coverage": (["--s", "0.8", "--s", "1.0"], {
        (): {
            "csv": "29e9d6064523a4a426114bc72da9916b4057131eedcb9c33c8be653498925d3b",
            "md": "7cfda69687d82f898a03bc20655bc32eff41cc7ca8fcef0a0de484a6ebc7f3b6",
        },
        ("--no-lowercase",): {
            "csv": "3ff850f726624d2f14510b3bfbc5b26aa1d4e374e6fc9c9f55727f46e63e0540",
            "md": "431da5c447e68b8b6029587399e52f5277de31e21dae0d4218afae039d73da0d",
        },
    }),
    "diversity": (["--k", "1", "--k", "3"], {
        (): {
            "csv": "acece69208a1caac254ba58b5bd7c0ca262520d5b6dba0b398ba897034998558",
            "md": "6c71c122b4fa8ce73f21de70e9a85c8df1537a72a5879e62e36c0ffdbc77780f",
        },
        ("--no-lowercase",): {
            "csv": "d291f385e97767733b92af0bcf2264c2de7ca289e93e18393b0ab37278bf43fa",
            "md": "e37e08c7c6d3dc46c660ade20a839d4aed5222d02ac24be240e8fcd1df37d3f0",
        },
    }),
    "relations": (["--k", "1", "--k", "3"], {
        (): {
            "csv": "1f4c2ca2c3efaa6bac3e6c8b109dbd88afdc2c669df0b8a3ec78229491860a81",
            "md": "2639de273d5ad06a5798a5940bcbbadb2b5d8dc654dc47f99fde65d378b2db64",
        },
        ("--no-lowercase",): {
            "csv": "9463dca5ee985ae5aeb2dcb776e326a60cca25435cecd97248cd001a4eaa5c7e",
            "md": "e4b0c8527f8b50e4311dc42a7d73c2661c88fa0defc6f95c222ae15273855521",
        },
    }),
}


@pytest.mark.parametrize("command", sorted(CASED_TABLES))
def test_mixed_case_tables_are_pinned(tmp_path, command):
    cased, swapped = tmp_path / "cased.vec", tmp_path / "swapped.vec"
    save_vec(CASED_VOCAB, CASED_ROWS, cased)
    save_vec([_CASE_SWAP.get(t, t) for t in CASED_VOCAB], CASED_ROWS, swapped)
    thesaurus = tmp_path / "cased.tsv"
    thesaurus.write_text(CASED_THESAURUS, encoding="utf-8")
    extra, digests = CASED_TABLES[command]

    def tables(*flags: str) -> dict[str, str]:
        out = tmp_path / "-".join(("o",) + flags)
        assert main([command, "--model", str(cased), "--model", str(swapped),
                     "--thesaurus", str(thesaurus), *extra, *flags, "--out", str(out)]) == 0
        return {ext: hashlib.sha256((out / f"{command}.{ext}").read_bytes()).hexdigest()
                for ext in ("csv", "md")}

    assert {flags: tables(*flags) for flags in digests} == digests
    # each table depends on the case setting
    lowered, preserved = digests[()], digests[("--no-lowercase",)]
    assert all(lowered[ext] != preserved[ext] for ext in lowered)


# A relations fixture with what the mini thesaurus lacks: no altLabel pair
# at all, a related pair dropped because "poverty gap" has no @de label,
# multi-token and hyphenated labels on both sides of a pair, and the
# descriptor "Fehlt", which no model holds.
RELATION_VOCAB = ["armut", "Armut", "gesellschaft", "Gesellschaft", "soziale", "frage",
                  "macht", "Macht", "staat", "Staat", "nord", "süd"]
RELATION_ROWS = [
    [1, 0, 0, 0],
    [0.2, 1, 0, 0],
    [0.9, 0.1, 0.2, 0],
    [0.1, 0.9, 0, 0.3],
    [0.7, 0, 0.6, 0],
    [0.6, 0, 0.7, 0.1],
    [0, 0.2, 1, 0],
    [0, 0.3, 0.9, 0.2],
    [0.1, 0, 0.95, 0],
    [0, 0.1, 0.3, 0.9],
    [0, 0, 0.2, 1],
    [0.3, 0, 0, 0.9],
]
RELATION_THESAURUS = (
    "subject\tpredicate\tobject\tlang\n"
    "c1\tprefLabel\tArmut\tde\n"
    "c2\tprefLabel\tGesellschaft\tde\n"
    "c3\tprefLabel\tsoziale Frage\tde\n"
    "c4\tprefLabel\tMacht\tde\n"
    "c5\tprefLabel\tStaat\tde\n"
    "c6\tprefLabel\tpoverty gap\ten\n"
    "c7\tprefLabel\tFehlt\tde\n"
    "c8\tprefLabel\tNord-Süd\tde\n"
    "c1\tbroader\tc2\t\n"
    "c3\tbroader\tc2\t\n"
    "c4\tbroader\tc5\t\n"
    "c7\tbroader\tc5\t\n"
    "c1\trelated\tc6\t\n"
    "c1\trelated\tc3\t\n"
    "c8\trelated\tc4\t\n"
    "c1\trelated\tc2\t\n"
    "c7\trelated\tc4\t\n"
)

# sha256 of the relations tables for that fixture under three flag sets,
# recorded while the thesaurus still filtered multi-word pairs.
RELATION_TABLES = {
    (): {
        "csv": "7b66b6c5fc4e68abc07216813abc7ec433b696b0d2de79a022c9494e1a35b460",
        "md": "274373fdaba311e414beb069879df9f23deea8caf13e1ad8d9d0c5aadfe03056",
    },
    ("--single-word-only",): {
        "csv": "527493dd9b887e9788db305ded920595b1ed6e5908ff93df33133e24c525ede3",
        "md": "76a5d85912cc29a7ba79e9a16cc4f56f311c5c1096f50fd5a28c2cd5618cf04c",
    },
    ("--single-word-only", "--oov-policy", "skip", "--no-lowercase"): {
        "csv": "5cabc16b3467b3d8cd4a269a542d6152a45e495b53e8edb6c5413d5041b51375",
        "md": "f95d7f1f8996ab543edb25c2b540a9cbf5c4cbae18297524aa6c18d02f31b847",
    },
}


def test_relations_tables_are_pinned(tmp_path):
    model, swapped = tmp_path / "rel.vec", tmp_path / "swapped.vec"
    save_vec(RELATION_VOCAB, RELATION_ROWS, model)
    save_vec(RELATION_VOCAB, RELATION_ROWS[::-1], swapped)
    thesaurus = tmp_path / "rel.tsv"
    thesaurus.write_text(RELATION_THESAURUS, encoding="utf-8")

    def tables(*flags: str) -> dict[str, str]:
        out = tmp_path / "-".join(("o",) + flags)
        assert main(["relations", "--model", str(model), "--model", str(swapped),
                     "--thesaurus", str(thesaurus), "--k", "1", "--k", "3", *flags,
                     "--out", str(out)]) == 0
        return {ext: hashlib.sha256((out / f"relations.{ext}").read_bytes()).hexdigest()
                for ext in ("csv", "md")}

    assert {flags: tables(*flags) for flags in RELATION_TABLES} == RELATION_TABLES


@pytest.mark.parametrize("command", ["coverage", "diversity", "relations"])
def test_lang_is_compared_in_lowercase(tmp_path, model_path, thesaurus_path, command):
    # both parsers lowercase the stored tags, so "DE" names the "@de" labels
    flipped = tmp_path / "flipped.vec"
    write_fixture_model(flipped, "flipped", flip=True)

    def csv_lines(lang: str) -> list[str]:
        out = tmp_path / lang
        assert main([command, "--model", str(model_path), "--model", str(flipped),
                     "--thesaurus", str(thesaurus_path), "--lang", lang, "--out", str(out)]) == 0
        return (out / f"{command}.csv").read_text(encoding="utf-8").splitlines()

    lines = csv_lines("DE")
    assert lines == csv_lines("de")
    # n_keywords, n_total or n_pairs
    assert any(int(line.split(",")[3]) > 0 for line in lines[1:])


def test_coverage_builds_no_vector_matrix(tmp_path, model_path, thesaurus_path, monkeypatch):
    # coverage reads only the vocabularies, so it writes the pinned tables
    # with load_vec unusable
    import embeval.vectors as vectors_module

    def refuse(*args, **kwargs):
        raise AssertionError("coverage called load_vec")

    monkeypatch.setattr(vectors_module, "load_vec", refuse)
    test_vector_command_tables_are_pinned(tmp_path, model_path, thesaurus_path, "coverage")


def test_relations_split_hyphenated_labels_as_the_corpus_does(tmp_path):
    # "sozial-politik" sits next to "armut" in the model, but the label
    # "Sozial-Politik" is two tokens, as in coverage and diversity
    model = tmp_path / "general.vec"
    save_vec(["sozial-politik", "armut", "macht"], [[1, 0], [0.99, _f(0.99)], [0, 1]], model)
    tsv = tmp_path / "thesaurus.tsv"
    tsv.write_text(
        "subject\tpredicate\tobject\tlang\n"
        "c1\tprefLabel\tSozial-Politik\tde\n"
        "c2\tprefLabel\tArmut\tde\n"
        "c1\trelated\tc2\t\n",
        encoding="utf-8",
    )

    def rel_row(*flags: str) -> list[str]:
        out = tmp_path / "-".join(("rel",) + flags)
        assert main(["relations", "--model", str(model), "--thesaurus", str(tsv),
                     "--k", "1", *flags, "--out", str(out)]) == 0
        lines = (out / "relations.csv").read_text(encoding="utf-8").splitlines()
        return next(l for l in lines if ",rel," in l).split(",")

    # k, model, relation, n_pairs, n_found, n_oov_descriptors, ...
    assert rel_row()[3:6] == ["1", "0", "1"]
    assert rel_row("--single-word-only")[3:6] == ["0", "0", "0"]
    md = (tmp_path / "rel---single-word-only" / "relations.md").read_text(encoding="utf-8")
    assert "dropped (multiword): bro=0, nar=0, rel=1, alt=0" in md


_LOADERS = ("load_vec", "load_vocab")


def _refuse_loads(monkeypatch) -> list:
    import embeval.vectors as vectors_module

    calls = []

    def refusing(loader):
        def refuse(*args, **kwargs):
            calls.append((loader, args))
            raise AssertionError(f"{loader} was called")
        return refuse

    for loader in _LOADERS:
        monkeypatch.setattr(vectors_module, loader, refusing(loader))
    return calls


@pytest.mark.parametrize("command", ["coverage", "diversity", "relations"])
def test_model_names_are_checked_before_any_load(tmp_path, thesaurus_path, monkeypatch, capsys,
                                                 command):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths += ["--model", str(tmp_path / sub / "m.vec")]
        write_fixture_model(tmp_path / sub / "m.vec")
    calls = _refuse_loads(monkeypatch)
    rc = main([command, *paths, "--thesaurus", str(thesaurus_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "model names are not unique: ['m', 'm']" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_that_is_a_file_is_an_argument_error(tmp_path, model_path, thesaurus_path, monkeypatch,
                                                 capsys, below):
    file = tmp_path / "out"
    file.write_text("a file\n", encoding="utf-8")
    calls = _refuse_loads(monkeypatch)
    rc = main(["coverage", "--model", str(model_path), "--thesaurus", str(thesaurus_path),
               "--out", str(file / below)])
    assert rc == 2
    assert f"--out is not a directory: {file}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("source", ["--cache-dir", "$EMBEVAL_CACHE_DIR"])
def test_cache_dir_that_is_a_file_is_an_argument_error(tmp_path, thesaurus_path, monkeypatch, capsys,
                                                       source):
    paths = []
    for name in ("a", "b"):
        write_fixture_model(tmp_path / f"{name}.vec")
        paths += ["--model", str(tmp_path / f"{name}.vec")]
    cache = tmp_path / "cache"
    cache.write_text("a file\n", encoding="utf-8")
    args = ["diversity", *paths, "--thesaurus", str(thesaurus_path), "--out", str(tmp_path / "o")]
    if source == "--cache-dir":
        args += ["--cache-dir", str(cache)]
    else:
        monkeypatch.setenv("EMBEVAL_CACHE_DIR", str(cache))
    calls = _refuse_loads(monkeypatch)
    assert main(args) == 2
    assert f"{source} is not a directory: {cache}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["", ".", "..", "a/b"])
def test_clean_name_must_be_a_file_name_prefix(tmp_path, capsys, name):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("Die Gesellschaft wandelt sich.\n", encoding="utf-8")
    out = tmp_path / "cleaned"
    rc = main(["clean", "--input", str(docs), "--out", str(out), "--name", name])
    assert rc == 2
    assert f"--name must be a file name prefix, got {name!r}" in capsys.readouterr().err
    assert not out.exists()


# A rerun into the input directory read its own corpus.<lang>.txt as
# documents, so corpus_stats.csv counted two files for one document.
@pytest.mark.parametrize("same", ["docs", "docs/../docs/."])
def test_clean_out_that_is_the_input_is_an_argument_error(tmp_path, capsys, same):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("Die Gesellschaft wandelt sich.\n", encoding="utf-8")
    rc = main(["clean", "--input", str(docs), "--out", str(tmp_path / same)])
    assert rc == 2
    assert f"--out must not be the input directory: {tmp_path / same}" in capsys.readouterr().err
    assert [p.name for p in docs.iterdir()] == ["a.txt"]


def test_clean_config_with_a_repeated_key_is_a_parse_error(tmp_path, capsys):
    # the last value won silently: languages = de wrote no en corpus
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("Die Gesellschaft wandelt sich.\n", encoding="utf-8")
    config = tmp_path / "pipeline.conf"
    config.write_text("languages = de,en\nlanguages = de\n", encoding="utf-8")
    rc = main(["clean", "--input", str(docs), "--out", str(tmp_path / "o"), "--config", str(config)])
    assert rc == 3
    assert f"{config}: line 2: repeated key 'languages'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "corpus_stats.csv").exists()


# The same file given twice was counted twice: 14 tokens and 2 files for a
# 7-token file.
@pytest.mark.parametrize("again", ["x.de.txt", "./x.de.txt"])
def test_stats_of_a_repeated_corpus_file_is_an_argument_error(tmp_path, monkeypatch, capsys, again):
    (tmp_path / "x.de.txt").write_text("die gesellschaft wandelt sich schnell , oder ?\n",
                                       encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rc = main(["stats", "x.de.txt", again, "--out", "o"])
    assert rc == 2
    assert "corpus files are not distinct: ['x.de.txt', " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# Invalid UTF-8 in these inputs exited 4, as an internal UnicodeDecodeError.
def test_clean_config_of_invalid_utf8_is_a_parse_error(tmp_path, capsys):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("Die Gesellschaft wandelt sich.\n", encoding="utf-8")
    config = tmp_path / "pipeline.conf"
    config.write_bytes(b"languages = de\xff\n")
    rc = main(["clean", "--input", str(docs), "--out", str(tmp_path / "o"), "--config", str(config)])
    assert rc == 3
    assert f"{config}: not valid UTF-8: invalid start byte" in capsys.readouterr().err


def test_stats_of_invalid_utf8_is_a_parse_error(tmp_path, capsys):
    corpus = tmp_path / "x.de.txt"
    corpus.write_bytes(b"die gesellschaft\nwandelt sich \xff\n")
    rc = main(["stats", str(corpus), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert f"{corpus}: not valid UTF-8: invalid start byte" in capsys.readouterr().err


# Parse errors of models and thesauri named no file: with two --model files
# the user could not tell which one held the duplicate token.
def test_model_parse_error_names_its_file(tmp_path, model_path, thesaurus_path, capsys):
    dup = tmp_path / "dup.vec"
    dup.write_text("2 1\na 1\na 2\n", encoding="utf-8")
    rc = main(["coverage", "--model", str(model_path), "--model", str(dup),
               "--thesaurus", str(thesaurus_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert f"parse error: {dup}: line 3: duplicate token 'a'\n" == capsys.readouterr().err
    rc = main(["neighbors", "--model", str(dup), "--word", "a", "--out", str(tmp_path / "n")])
    assert rc == 3
    assert f"parse error: {dup}: line 3: duplicate token 'a'\n" == capsys.readouterr().err


@pytest.mark.parametrize("suffix", [".nt", ".tsv"])
def test_thesaurus_parse_error_names_its_file(tmp_path, model_path, capsys, suffix):
    thesaurus = tmp_path / f"th{suffix}"
    thesaurus.write_bytes(b"# broken \xff\n")
    rc = main(["coverage", "--model", str(model_path), "--thesaurus", str(thesaurus),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"parse error: {thesaurus}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 9: invalid start byte\n"
    )


def test_diversity_cache_of_invalid_utf8_is_a_parse_error_naming_its_file(
        tmp_path, model_path, thesaurus_path, capsys):
    flipped = tmp_path / "flipped.vec"
    write_fixture_model(flipped, "flipped", flip=True)
    cache = tmp_path / "cache"
    args = ["diversity", "--model", str(model_path), "--model", str(flipped),
            "--thesaurus", str(thesaurus_path), "--k", "5", "--cache-dir", str(cache)]
    assert main([*args, "--out", str(tmp_path / "o1")]) == 0
    path = cache / "flipped.neighbors.tsv"
    path.write_bytes(path.read_bytes() + b"\xff\n")
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "o2")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {path}: not valid UTF-8: ")
    assert err.endswith("; delete the file to rebuild it\n")
    assert err.count(str(path)) == 1
    path.unlink()
    assert main([*args, "--out", str(tmp_path / "o3")]) == 0
    assert _diversity_tables(tmp_path / "o3") == _diversity_tables(tmp_path / "o1")


def test_diversity_cache_parse_error_names_its_file(tmp_path, model_path, thesaurus_path, capsys):
    flipped = tmp_path / "flipped.vec"
    write_fixture_model(flipped, "flipped", flip=True)
    cache = tmp_path / "cache"
    args = ["diversity", "--model", str(model_path), "--model", str(flipped),
            "--thesaurus", str(thesaurus_path), "--k", "5", "--cache-dir", str(cache)]
    assert main([*args, "--out", str(tmp_path / "o1")]) == 0
    path = cache / "flipped.neighbors.tsv"
    path.write_text(path.read_text(encoding="utf-8") + "haus\t\n", encoding="utf-8")
    line_no = len(path.read_text(encoding="utf-8").splitlines())
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "o2")]) == 3
    assert capsys.readouterr().err == (
        f"parse error: {path}: line {line_no}: empty field; delete the file to rebuild it\n"
    )


def test_thesaurus_is_parsed_before_any_model(tmp_path, monkeypatch, capsys):
    bad_model = tmp_path / "bad.vec"
    bad_model.write_text("not a header\n", encoding="utf-8")
    bad_thesaurus = tmp_path / "bad.nt"
    bad_thesaurus.write_text("this is no triple\n", encoding="utf-8")
    calls = _refuse_loads(monkeypatch)
    rc = main(["coverage", "--model", str(bad_model), "--thesaurus", str(bad_thesaurus),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "line 1: malformed triple" in capsys.readouterr().err
    assert calls == []


def test_an_escape_beyond_unicode_is_an_input_error(tmp_path, model_path, capsys):
    # chr() refuses the code point; that must not surface as an internal error
    bad_thesaurus = tmp_path / "bad.nt"
    bad_thesaurus.write_text(
        "# a thesaurus\n"
        '<http://ex/a> <http://www.w3.org/2004/02/skos/core#prefLabel> "x\\U00110000"@de .\n',
        encoding="utf-8",
    )
    rc = main(["coverage", "--model", str(model_path), "--thesaurus", str(bad_thesaurus),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "line 2: escape \\U00110000 is beyond U+10FFFF" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coverage", "diversity", "relations"])
def test_vector_commands_hold_one_model_at_a_time(tmp_path, model_path, thesaurus_path,
                                                  monkeypatch, command):
    import weakref

    import embeval.vectors as vectors_module

    loaded = []

    def tracking(real):
        def load(*args, **kwargs):
            # every model loaded before this call, by either loader, has been dropped
            assert [ref() for ref in loaded] == [None] * len(loaded)
            model = real(*args, **kwargs)
            loaded.append(weakref.ref(model))
            return model
        return load

    for loader in _LOADERS:
        monkeypatch.setattr(vectors_module, loader, tracking(getattr(vectors_module, loader)))
    flipped = tmp_path / "flipped.vec"
    write_fixture_model(flipped, "flipped", flip=True)
    assert main([
        command, "--model", str(model_path), "--model", str(flipped),
        "--thesaurus", str(thesaurus_path), "--out", str(tmp_path / "o"),
    ]) == 0
    assert len(loaded) == 2


def test_vector_commands_import_no_cleaning_cascade(tmp_path, model_path, thesaurus_path):
    script = (
        "import sys\n"
        "from embeval.cli import main\n"
        f"assert main(['coverage', '--model', {str(model_path)!r}, '--thesaurus', "
        f"{str(thesaurus_path)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m in "
        "('embeval.corpus', 'embeval.langid', 'embeval.numwords')))\n"
    )
    import embeval

    env = {**os.environ, "PYTHONPATH": str(Path(embeval.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
