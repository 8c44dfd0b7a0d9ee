"""Command-line entry point: clean, stats, coverage, diversity, relations, neighbors.

Exit codes: 0 ok, 2 argument error, 3 input parse error, 4 internal error.
All argument validation happens before any file is parsed or any heavy
computation starts.  Every command writes CSV and Markdown tables plus a
run manifest into --out; rerunning with identical inputs and parameters
reproduces the tables byte for byte (the manifest differs only in its
duration field).

The vector commands (coverage, diversity, relations) share one skeleton,
``_vector_command``: it parses the thesaurus, then loads one model at a
time, records it in the manifest, builds its match or neighbor map and
drops it before the next model loads, so a run holds at most one model.
The tables are read off the maps alone.  Each command adds its argument
checks, its manifest parameters, what it reads of the thesaurus, how it
loads and maps one model and how it builds the tables; this module is the
one place that builds maps.  coverage loads each model with
``vectors.load_vocab``, which validates every vector but keeps only the
vocabulary, so it never holds a vector matrix; diversity and relations
search neighbors and load the whole model with ``vectors.load_vec``.
"""

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import EmbevalError, InputParseError, UsageError
from .report import ManifestTimer, RunManifest, markdown_table, pct, write_csv

# The vector commands import metrics, neighbors, stringsim, thesaurus and
# vectors when they run, and clean and stats import corpus, so clean and
# stats never load numpy and the vector commands never load the cleaning
# cascade.  The parser's choices are therefore spelled here; test_cli
# checks them against metrics.DENOMINATOR_POLICIES and metrics.OOV_POLICIES.
DENOMINATOR_CHOICES = ("evaluated", "total")
OOV_CHOICES = ("miss", "skip")

CACHE_DIR_ENV = "EMBEVAL_CACHE_DIR"

RELATION_COLUMNS = [("broader", "bro"), ("narrower", "nar"), ("related", "rel"), ("altLabel", "alt")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embeval",
        description="Evaluate word-embedding models against a SKOS thesaurus.",
    )
    parser.add_argument("--version", action="version", version=f"embeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="run the corpus cleaning pipeline")
    p.add_argument("--input", required=True, help="directory of UTF-8 .txt documents")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key=value pipeline config file")
    p.add_argument("--name", default="corpus", help="corpus file name prefix")

    p = sub.add_parser("stats", help="recount corpus statistics from corpus files")
    p.add_argument("corpus_files", nargs="+", help="cleaned corpus files (<name>.<lang>.txt)")
    p.add_argument("--out", required=True)

    # the inputs every vector command reads
    vector = argparse.ArgumentParser(add_help=False)
    vector.add_argument("--model", action="append", required=True, help="word-vector file (repeatable)")
    vector.add_argument("--thesaurus", required=True)
    vector.add_argument("--lang", default="de")
    vector.add_argument("--no-lowercase", action="store_true")
    vector.add_argument("--out", required=True)

    p = sub.add_parser("coverage", parents=[vector], help="keyword coverage of model vocabularies")
    p.add_argument("--s", action="append", type=float, help="similarity threshold (repeatable)")

    p = sub.add_parser("diversity", parents=[vector], help="neighborhood diversity between models")
    p.add_argument("--k", action="append", type=int, help="neighborhood size (repeatable)")
    p.add_argument("--denominator", choices=DENOMINATOR_CHOICES, default="evaluated")
    p.add_argument("--cache-dir", help=f"neighbor cache directory (or ${CACHE_DIR_ENV})")
    p.add_argument("--refresh", action="store_true", help="rebuild stale or incomplete caches")

    p = sub.add_parser("relations", parents=[vector], help="relational coverage per relation type")
    p.add_argument("--k", action="append", type=int)
    p.add_argument("--single-word-only", action="store_true")
    p.add_argument("--oov-policy", choices=OOV_CHOICES, default="miss")

    p = sub.add_parser("neighbors", help="print the top-k neighbors of one word")
    p.add_argument("--model", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    return parser


def _require_files(*paths) -> None:
    for path in paths:
        if not Path(path).is_file():
            raise UsageError(f"no such file: {path}")


def _check_s_values(values: list[float]) -> list[float]:
    for s in values:
        if not 0.0 < s <= 1.0:
            raise UsageError(f"threshold s must be in (0, 1], got {s}")
    return sorted(set(values))


def _check_k_values(values: list[int]) -> list[int]:
    for k in values:
        if k < 1:
            raise UsageError(f"k must be >= 1, got {k}")
    return sorted(set(values))


def _model_name(path: str) -> str:
    name = Path(path).name
    return name[: -len(".vec")] if name.endswith(".vec") else Path(path).stem


def _load_thesaurus(path: str):
    from .thesaurus import parse_ntriples_skos, parse_tsv

    if str(path).endswith(".tsv"):
        return parse_tsv(path)
    return parse_ntriples_skos(path)


def _manifest(command: str, inputs: list, parameters: dict) -> RunManifest:
    manifest = RunManifest(command=command, parameters=parameters, version=__version__)
    for path in inputs:
        manifest.add_input(path)
    return manifest


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_stats(path: Path, stats) -> None:
    rows = [[s.lang, s.tokens, s.vocabulary, s.files, f"{s.megabytes:.2f}"] for s in stats]
    write_csv(path, ["lang", "tokens", "vocabulary", "files", "megabytes"], rows)


def cmd_clean(args) -> int:
    from .corpus import PipelineConfig, run_pipeline

    input_dir = Path(args.input)
    if not input_dir.is_dir():
        raise UsageError(f"no such input directory: {args.input}")
    if args.config:
        _require_files(args.config)
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    out = _out_dir(args)
    inputs = sorted(str(p) for p in input_dir.glob("*.txt"))
    if args.config:
        inputs.append(args.config)
    manifest = _manifest(
        "clean", inputs,
        {"input": args.input, "name": args.name, "languages": list(config.languages)},
    )
    with ManifestTimer(manifest):
        stats, report, outputs = run_pipeline(args.input, config, out, corpus_name=args.name)
        _write_stats(out / "corpus_stats.csv", stats)
        summary = {
            "files_processed": report.files_processed,
            "files_skipped": report.files_skipped,
            "empty_documents": report.empty_documents,
            "unknown_lines": report.unknown_lines,
            "dedup": {lang: {"kept": d.kept, "dropped": d.dropped} for lang, d in report.dedup.items()},
            "warnings": report.warnings,
        }
        (out / "clean_report.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    manifest.write(out / "clean.manifest.json")
    for lang, path in outputs.items():
        print(f"wrote {path}")
    print(f"wrote {out / 'corpus_stats.csv'}")
    return 0


def cmd_stats(args) -> int:
    from .corpus import recount_stats

    _require_files(*args.corpus_files)
    out = _out_dir(args)
    manifest = _manifest("stats", list(args.corpus_files), {})
    with ManifestTimer(manifest):
        _write_stats(out / "stats.csv", recount_stats(args.corpus_files))
    manifest.write(out / "stats.manifest.json")
    print(f"wrote {out / 'stats.csv'}")
    return 0


def _vector_command(args, parameters: dict, prepare, load, build_map, tables) -> int:
    """Parse the thesaurus, map one model at a time, then write the tables.

    ``prepare(thesaurus)`` returns what the command reads of the thesaurus.
    ``load(path, name)`` reads one model file: ``vectors.load_vec`` or,
    when the vocabulary is all the command reads, ``vectors.load_vocab``;
    either result has ``vocab``, ``zero_rows`` and ``source_digest``.
    ``build_map(model, prepared)`` returns the match or neighbor map of one
    model; each model is loaded, recorded and mapped, then dropped before
    the next one loads.  ``tables(prepared, maps)`` gets ``(name,
    vocabulary size, map)`` per model in argv order and returns the CSV
    header, the CSV rows and the Markdown text, written to
    ``<command>.csv`` and ``<command>.md`` next to the manifest.
    """
    names = [_model_name(path) for path in args.model]
    if len(set(names)) != len(names):
        raise UsageError(f"model names are not unique: {names}")
    _require_files(*args.model, args.thesaurus)
    out = _out_dir(args)
    parameters = {**parameters, "lang": args.lang, "lowercase": not args.no_lowercase}
    manifest = _manifest(args.command, [], parameters)
    zero_vectors = manifest.parameters["zero_vectors"] = {}
    with ManifestTimer(manifest):
        prepared = prepare(_load_thesaurus(args.thesaurus))
        maps = []
        for path, name in zip(args.model, names):
            # the digest is that of the bytes parsed, so each file is read once
            model = load(path, name)
            manifest.add_input(path, model.source_digest)
            zero_vectors[name] = len(model.zero_rows)
            maps.append((name, len(model.vocab), build_map(model, prepared)))
            del model
        manifest.add_input(args.thesaurus)
        header, rows, md = tables(prepared, maps)
        csv_path, md_path = out / f"{args.command}.csv", out / f"{args.command}.md"
        write_csv(csv_path, header, rows)
        md_path.write_text(md, encoding="utf-8")
    manifest.write(out / f"{args.command}.manifest.json")
    print(f"wrote {csv_path} and {md_path}")
    return 0


def cmd_coverage(args) -> int:
    from .metrics import coverage, match_map
    from .stringsim import VocabIndex
    from .thesaurus import keywords
    from .vectors import load_vocab

    s_values = _check_s_values(args.s or [0.9, 0.95, 1.0])
    lowercase = not args.no_lowercase

    def prepare(th):
        return keywords(th, args.lang)

    def build_map(vocab, labels):
        return match_map(VocabIndex(vocab.vocab), labels, min(s_values), lowercase)

    def tables(labels, maps):
        rows = []
        for name, vocab_size, matches in maps:
            for s in s_values:
                result = coverage(name, labels, s, matches, lowercase)
                rows.append([name, vocab_size, str(s), result.n_keywords,
                             result.n_covered, pct(result.c)])
        # rows run model by model, so rows[j::len(s_values)] is the j-th threshold of each model
        md_rows = [["Vocab size"] + [str(vocab_size) for _, vocab_size, _ in maps]]
        md_rows += [[f"s={s}"] + [row[-1] for row in rows[j :: len(s_values)]]
                    for j, s in enumerate(s_values)]
        md = f"# Keyword coverage (n={len(labels)} keywords, lang={args.lang})\n\n"
        md += markdown_table([""] + [name for name, _, _ in maps], md_rows)
        return ["model", "vocab_size", "s", "n_keywords", "n_covered", "c"], rows, md

    return _vector_command(args, {"s": s_values}, prepare, load_vocab, build_map, tables)


def cmd_diversity(args) -> int:
    from .metrics import diversity_matrix, keyword_queries
    from .neighbors import neighbor_map
    from .thesaurus import keywords
    from .vectors import load_vec

    if len(args.model) < 2:
        raise UsageError("diversity needs at least two --model files")
    k_values = _check_k_values(args.k or [10, 50, 200])
    lowercase = not args.no_lowercase
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or None

    def prepare(th):
        labels = keywords(th, args.lang)
        return labels, keyword_queries(labels, lowercase)

    def build_map(model, prepared):
        _, queries = prepared
        return neighbor_map(model, queries, max(k_values), cache_dir, args.refresh)

    def tables(prepared, maps):
        labels, _ = prepared
        neighbor_maps = {name: neighbors for name, _, neighbors in maps}
        names = list(neighbor_maps)
        rows = []
        md_parts = [f"# Neighborhood diversity (n={len(labels)} keywords, lang={args.lang})\n"]
        for k in k_values:
            matrix = diversity_matrix(neighbor_maps, labels, k, lowercase, args.denominator)
            for a, b in itertools.combinations(names, 2):
                res = matrix[(a, b)]
                rows.append([k, a, b, res.n_total, res.n_evaluated,
                             res.n_disjoint, res.n_skipped_multiword, res.n_skipped_oov,
                             res.n_skipped_empty, pct(res.d), res.denominator])
            md_rows = [[a] + ["-" if a == b else pct(matrix[(a, b)].d) for b in names]
                       for a in names]
            md_parts.append(markdown_table([f"top-{k}"] + names, md_rows))
        md_parts.append(
            "Neighborhoods exclude the query token itself; zero-vector and "
            "out-of-vocabulary keywords are skipped and counted in the CSV.\n"
        )
        header = ["k", "model_a", "model_b", "n_total", "n_evaluated", "n_disjoint",
                  "n_skipped_multiword", "n_skipped_oov", "n_skipped_empty", "d", "denominator"]
        return header, rows, "\n".join(md_parts)

    parameters = {"k": k_values, "denominator": args.denominator, "cache_dir": cache_dir,
                  "refresh": args.refresh}
    return _vector_command(args, parameters, prepare, load_vec, build_map, tables)


def cmd_relations(args) -> int:
    from .metrics import descriptor_queries, relational_coverage
    from .neighbors import neighbor_map
    from .thesaurus import RELATION_TYPES, descriptor_pairs
    from .vectors import load_vec

    k_values = _check_k_values(args.k or [10, 50, 200])
    lowercase = not args.no_lowercase

    def prepare(th):
        selections = {
            rel: descriptor_pairs(th, rel, args.lang, single_word_only=args.single_word_only)
            for rel in RELATION_TYPES
        }
        pairs = [p for rel in RELATION_TYPES for p in selections[rel].pairs]
        return selections, pairs, descriptor_queries(pairs, lowercase)

    def build_map(model, prepared):
        *_, queries = prepared
        return neighbor_map(model, queries, max(k_values))

    def tables(prepared, maps):
        selections, pairs, _ = prepared
        rows = []
        md_parts = [f"# Relational coverage (lang={args.lang}, oov={args.oov_policy})\n"]
        for k in k_values:
            md_rows = []
            for name, _, neighbors in maps:
                results = relational_coverage(name, pairs, k, neighbors, lowercase,
                                              args.oov_policy)
                md_row = [name]
                for rel, short in RELATION_COLUMNS:
                    res = results.get(rel)
                    if res is None:
                        rows.append([k, name, short, 0, 0, 0, args.oov_policy, pct(0.0)])
                        md_row.append("0.00 (n=0)")
                    else:
                        rows.append([k, name, short, res.n_pairs, res.n_found,
                                     res.n_oov_descriptors, res.oov_policy, pct(res.r)])
                        md_row.append(pct(res.r))
                md_rows.append(md_row)
            md_parts.append(markdown_table([f"top-{k}"] + [short for _, short in RELATION_COLUMNS], md_rows))

        def per_relation(count) -> str:
            return ", ".join(f"{short}={count(selections[rel])}" for rel, short in RELATION_COLUMNS)

        md_parts.append(
            f"Pairs per relation: {per_relation(lambda sel: len(sel.pairs))}"
            f"; dropped (no label in lang): {per_relation(lambda sel: sel.skipped_no_lang)}"
            f"; dropped (multiword): {per_relation(lambda sel: sel.skipped_multiword)}\n"
        )
        header = ["k", "model", "relation", "n_pairs", "n_found", "n_oov_descriptors", "oov_policy", "r"]
        return header, rows, "\n".join(md_parts)

    parameters = {"k": k_values, "single_word_only": args.single_word_only,
                  "oov_policy": args.oov_policy}
    return _vector_command(args, parameters, prepare, load_vec, build_map, tables)


def cmd_neighbors(args) -> int:
    from .neighbors import top_k
    from .vectors import load_vec

    if args.k < 0:
        raise UsageError(f"k must be >= 0, got {args.k}")
    _require_files(args.model)
    out = _out_dir(args)
    manifest = _manifest("neighbors", [], {"word": args.word, "k": args.k})
    with ManifestTimer(manifest):
        model = load_vec(args.model, _model_name(args.model))
        manifest.add_input(args.model, model.source_digest)
        try:
            ns = top_k(model, args.word, args.k)
        except EmbevalError as exc:
            raise UsageError(str(exc)) from exc
        rows = [[rank, token, f"{score:.6f}"] for rank, (token, score) in enumerate(ns.entries, 1)]
        table = markdown_table(["rank", "token", "score"], rows)
        print(table, end="")
        write_csv(out / "neighbors.csv", ["rank", "token", "score"], rows)
        (out / "neighbors.md").write_text(table, encoding="utf-8")
    manifest.write(out / "neighbors.manifest.json")
    return 0


_COMMANDS = {
    "clean": cmd_clean,
    "stats": cmd_stats,
    "coverage": cmd_coverage,
    "diversity": cmd_diversity,
    "relations": cmd_relations,
    "neighbors": cmd_neighbors,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except EmbevalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
