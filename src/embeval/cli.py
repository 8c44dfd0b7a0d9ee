"""Command-line entry point: clean, stats, coverage, diversity, relations, neighbors.

Exit codes: 0 ok, 2 argument error, 3 input parse error, 4 internal error.
All argument validation happens before any file is parsed or any heavy
computation starts.  Every command writes CSV and Markdown tables plus a
run manifest into --out; rerunning with identical inputs and parameters
reproduces the tables byte for byte (the manifest differs only in its
duration field).
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .corpus import PipelineConfig, recount_stats, run_pipeline
from .errors import EmbevalError, InputParseError, UnknownTokenError, UsageError
from .report import ManifestTimer, RunManifest, markdown_table, pct, write_csv

# The vector commands import metrics, neighbors, stringsim, thesaurus and
# vectors when they run, so clean and stats never load numpy.  The parser's
# choices are therefore spelled here; test_cli checks them against
# metrics.DENOMINATOR_POLICIES and metrics.OOV_POLICIES.
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

    p = sub.add_parser("coverage", help="keyword coverage of model vocabularies")
    p.add_argument("--model", action="append", required=True, help="word-vector file (repeatable)")
    p.add_argument("--thesaurus", required=True)
    p.add_argument("--s", action="append", type=float, help="similarity threshold (repeatable)")
    p.add_argument("--lang", default="de")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("diversity", help="neighborhood diversity between models")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--thesaurus", required=True)
    p.add_argument("--k", action="append", type=int, help="neighborhood size (repeatable)")
    p.add_argument("--lang", default="de")
    p.add_argument("--denominator", choices=DENOMINATOR_CHOICES, default="evaluated")
    p.add_argument("--cache-dir", help=f"neighbor cache directory (or ${CACHE_DIR_ENV})")
    p.add_argument("--refresh", action="store_true", help="rebuild stale or incomplete caches")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("relations", help="relational coverage per relation type")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--thesaurus", required=True)
    p.add_argument("--k", action="append", type=int)
    p.add_argument("--lang", default="de")
    p.add_argument("--single-word-only", action="store_true")
    p.add_argument("--oov-policy", choices=OOV_CHOICES, default="miss")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--out", required=True)

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


def _load_models(paths: list[str], manifest: RunManifest):
    """Load each model and record it as a manifest input with the digest of
    the bytes it was parsed from, so each model file is read once."""
    from .vectors import load_vec

    models = []
    for path in paths:
        models.append(load_vec(path, _model_name(path)))
        manifest.add_input(path, models[-1].source_digest)
    names = [m.name for m in models]
    if len(set(names)) != len(names):
        raise UsageError(f"model names are not unique: {names}")
    return models


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


def cmd_clean(args) -> int:
    _require_dirs = Path(args.input)
    if not _require_dirs.is_dir():
        raise UsageError(f"no such input directory: {args.input}")
    if args.config:
        _require_files(args.config)
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    out = _out_dir(args)
    inputs = sorted(str(p) for p in Path(args.input).glob("*.txt"))
    if args.config:
        inputs.append(args.config)
    manifest = _manifest(
        "clean", inputs,
        {"input": args.input, "name": args.name, "languages": list(config.languages)},
    )
    with ManifestTimer(manifest):
        stats, report, outputs = run_pipeline(args.input, config, out, corpus_name=args.name)
        rows = [
            [s.lang, s.tokens, s.vocabulary, s.files, f"{s.megabytes:.2f}"] for s in stats
        ]
        write_csv(out / "corpus_stats.csv", ["lang", "tokens", "vocabulary", "files", "megabytes"], rows)
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
    _require_files(*args.corpus_files)
    out = _out_dir(args)
    manifest = _manifest("stats", list(args.corpus_files), {})
    with ManifestTimer(manifest):
        stats = recount_stats(args.corpus_files)
        rows = [
            [s.lang, s.tokens, s.vocabulary, s.files, f"{s.megabytes:.2f}"] for s in stats
        ]
        write_csv(out / "stats.csv", ["lang", "tokens", "vocabulary", "files", "megabytes"], rows)
    manifest.write(out / "stats.manifest.json")
    print(f"wrote {out / 'stats.csv'}")
    return 0


def cmd_coverage(args) -> int:
    from .metrics import coverage, match_map
    from .stringsim import VocabIndex
    from .thesaurus import keywords

    s_values = _check_s_values(args.s or [0.9, 0.95, 1.0])
    _require_files(*args.model, args.thesaurus)
    out = _out_dir(args)
    lowercase = not args.no_lowercase
    manifest = _manifest(
        "coverage", [],
        {"s": s_values, "lang": args.lang, "lowercase": lowercase},
    )
    with ManifestTimer(manifest):
        models = _load_models(args.model, manifest)
        manifest.add_input(args.thesaurus)
        manifest.parameters["zero_vectors"] = {m.name: len(m.zero_rows) for m in models}
        th = _load_thesaurus(args.thesaurus)
        labels = [kw.label for kw in keywords(th, args.lang)]
        csv_rows = []
        md_columns: dict[str, dict[str, str]] = {m.name: {} for m in models}
        for model in models:
            matches = match_map(VocabIndex(model.vocab), labels, min(s_values), lowercase)
            md_columns[model.name]["Vocab size"] = str(len(model.vocab))
            for s in s_values:
                result = coverage(model, labels, s, lowercase=lowercase, matches=matches)
                csv_rows.append(
                    [model.name, len(model.vocab), str(s), result.n_keywords,
                     result.n_covered, pct(result.c)]
                )
                md_columns[model.name][f"s={s}"] = pct(result.c)
        write_csv(
            out / "coverage.csv",
            ["model", "vocab_size", "s", "n_keywords", "n_covered", "c"],
            csv_rows,
        )
        header = [""] + [m.name for m in models]
        md_rows = [["Vocab size"] + [md_columns[m.name]["Vocab size"] for m in models]]
        for s in s_values:
            md_rows.append([f"s={s}"] + [md_columns[m.name][f"s={s}"] for m in models])
        md = f"# Keyword coverage (n={len(labels)} keywords, lang={args.lang})\n\n"
        md += markdown_table(header, md_rows)
        (out / "coverage.md").write_text(md, encoding="utf-8")
    manifest.write(out / "coverage.manifest.json")
    print(f"wrote {out / 'coverage.csv'} and {out / 'coverage.md'}")
    return 0


def cmd_diversity(args) -> int:
    from .metrics import diversity_matrix, keyword_queries
    from .neighbors import neighbor_map
    from .thesaurus import keywords

    if len(args.model) < 2:
        raise UsageError("diversity needs at least two --model files")
    k_values = _check_k_values(args.k or [10, 50, 200])
    _require_files(*args.model, args.thesaurus)
    out = _out_dir(args)
    lowercase = not args.no_lowercase
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or None
    manifest = _manifest(
        "diversity", [],
        {"k": k_values, "lang": args.lang, "denominator": args.denominator,
         "lowercase": lowercase, "cache_dir": cache_dir, "refresh": args.refresh},
    )
    with ManifestTimer(manifest):
        models = _load_models(args.model, manifest)
        manifest.add_input(args.thesaurus)
        manifest.parameters["zero_vectors"] = {m.name: len(m.zero_rows) for m in models}
        th = _load_thesaurus(args.thesaurus)
        labels = [kw.label for kw in keywords(th, args.lang)]
        queries = keyword_queries(labels, lowercase)
        neighbor_maps = {m.name: neighbor_map(m, queries, max(k_values), cache_dir, args.refresh)
                         for m in models}
        csv_rows = []
        md_parts = [f"# Neighborhood diversity (n={len(labels)} keywords, lang={args.lang})\n"]
        for k in k_values:
            matrix = diversity_matrix(
                models, labels, k,
                lowercase=lowercase, denominator=args.denominator,
                neighbor_maps=neighbor_maps,
            )
            for i, a in enumerate(models):
                for b in models[i + 1 :]:
                    res = matrix[(a.name, b.name)]
                    csv_rows.append(
                        [k, a.name, b.name, res.n_total, res.n_evaluated,
                         res.n_disjoint, res.n_skipped_multiword, res.n_skipped_oov,
                         res.n_skipped_empty, pct(res.d), res.denominator]
                    )
            header = [f"top-{k}"] + [m.name for m in models]
            rows = []
            for a in models:
                row = [a.name]
                for b in models:
                    row.append("-" if a.name == b.name else pct(matrix[(a.name, b.name)].d))
                rows.append(row)
            md_parts.append(markdown_table(header, rows))
        md_parts.append(
            "Neighborhoods exclude the query token itself; zero-vector and "
            "out-of-vocabulary keywords are skipped and counted in the CSV.\n"
        )
        write_csv(
            out / "diversity.csv",
            ["k", "model_a", "model_b", "n_total", "n_evaluated", "n_disjoint",
             "n_skipped_multiword", "n_skipped_oov", "n_skipped_empty", "d", "denominator"],
            csv_rows,
        )
        (out / "diversity.md").write_text("\n".join(md_parts), encoding="utf-8")
    manifest.write(out / "diversity.manifest.json")
    print(f"wrote {out / 'diversity.csv'} and {out / 'diversity.md'}")
    return 0


def cmd_relations(args) -> int:
    from .metrics import descriptor_queries, relational_coverage
    from .neighbors import neighbor_map
    from .thesaurus import RELATION_TYPES, descriptor_pairs

    k_values = _check_k_values(args.k or [10, 50, 200])
    _require_files(*args.model, args.thesaurus)
    out = _out_dir(args)
    lowercase = not args.no_lowercase
    manifest = _manifest(
        "relations", [],
        {"k": k_values, "lang": args.lang, "single_word_only": args.single_word_only,
         "oov_policy": args.oov_policy, "lowercase": lowercase},
    )
    with ManifestTimer(manifest):
        models = _load_models(args.model, manifest)
        manifest.add_input(args.thesaurus)
        manifest.parameters["zero_vectors"] = {m.name: len(m.zero_rows) for m in models}
        th = _load_thesaurus(args.thesaurus)
        selections = {
            rel: descriptor_pairs(th, rel, args.lang, single_word_only=args.single_word_only)
            for rel in RELATION_TYPES
        }
        all_pairs = [p for rel in RELATION_TYPES for p in selections[rel].pairs]
        queries = descriptor_queries(all_pairs, lowercase)
        neighbor_maps = {m.name: neighbor_map(m, queries, max(k_values)) for m in models}
        csv_rows = []
        md_parts = [f"# Relational coverage (lang={args.lang}, oov={args.oov_policy})\n"]
        for k in k_values:
            rows = []
            for model in models:
                results = relational_coverage(
                    model, all_pairs, k, lowercase=lowercase, oov_policy=args.oov_policy,
                    neighbors=neighbor_maps[model.name],
                )
                row = [model.name]
                for rel, short in RELATION_COLUMNS:
                    res = results.get(rel)
                    if res is None:
                        csv_rows.append([k, model.name, short, 0, 0, 0, args.oov_policy, pct(0.0)])
                        row.append("0.00 (n=0)")
                        continue
                    csv_rows.append(
                        [k, model.name, short, res.n_pairs, res.n_found,
                         res.n_oov_descriptors, res.oov_policy, pct(res.r)]
                    )
                    row.append(pct(res.r))
                rows.append(row)
            header = [f"top-{k}"] + [short for _, short in RELATION_COLUMNS]
            md_parts.append(markdown_table(header, rows))
        n_pairs_by_rel = {rel: len(selections[rel].pairs) for rel in RELATION_TYPES}
        md_parts.append(
            "Pairs per relation: "
            + ", ".join(f"{short}={n_pairs_by_rel[rel]}" for rel, short in RELATION_COLUMNS)
            + "; dropped (no label in lang): "
            + ", ".join(f"{short}={selections[rel].skipped_no_lang}" for rel, short in RELATION_COLUMNS)
            + "; dropped (multiword): "
            + ", ".join(f"{short}={selections[rel].skipped_multiword}" for rel, short in RELATION_COLUMNS)
            + "\n"
        )
        write_csv(
            out / "relations.csv",
            ["k", "model", "relation", "n_pairs", "n_found", "n_oov_descriptors", "oov_policy", "r"],
            csv_rows,
        )
        (out / "relations.md").write_text("\n".join(md_parts), encoding="utf-8")
    manifest.write(out / "relations.manifest.json")
    print(f"wrote {out / 'relations.csv'} and {out / 'relations.md'}")
    return 0


def cmd_neighbors(args) -> int:
    from .neighbors import top_k

    if args.k < 0:
        raise UsageError(f"k must be >= 0, got {args.k}")
    _require_files(args.model)
    out = _out_dir(args)
    manifest = _manifest("neighbors", [], {"word": args.word, "k": args.k})
    with ManifestTimer(manifest):
        [model] = _load_models([args.model], manifest)
        try:
            ns = top_k(model, args.word, args.k)
        except (UnknownTokenError, EmbevalError) as exc:
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
