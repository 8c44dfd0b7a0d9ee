"""Command-line entry point: clean, stats, coverage, diversity, relations, neighbors.

Exit codes: 0 ok, 2 argument error, 3 input parse error, 4 internal error.
All argument validation happens before any file is parsed or any heavy
computation starts.  Besides the values of each option, it rejects an
--out or a neighbor cache directory (--cache-dir or $EMBEVAL_CACHE_DIR)
that is, or lies under, an existing file, a clean --name that is empty,
``.``, ``..`` or holds a path separator, a clean --out that is the
--input directory, and a stats corpus file given twice.  Every command
writes CSV and Markdown tables plus a run manifest into --out; rerunning
with identical inputs and parameters reproduces the tables byte for byte
(the manifest differs only in its duration field).

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

The metrics read tokens, not labels, and this module alone decides how a
label is read.  Each command's ``prepare`` splits every thesaurus label it
passes to a metric once with ``thesaurus.keyword_tokens``, lowercased
unless --no-lowercase (coverage's warns once about each label that has no
tokens), and ``build_map`` lowercases each neighbor map under the same
flag right after the search, so labels and neighbors are read alike; the
neighbor cache keeps the model's own tokens.  For relations,
that step is ``relation_pairs``, which also applies --single-word-only.
"""

import argparse
import dataclasses
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


def _check_directory(path, option: str) -> None:
    """Reject a ``path`` that cannot be a directory: the path itself, or
    its nearest ancestor that exists, is something else."""
    if not path:
        return
    existing = next(p for p in (Path(path), *Path(path).absolute().parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"{option} is not a directory: {existing}")


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


def _parse_file(read, path, *args):
    """``read(path, *args)``; a parse error names the file, as ``<path>: line N: ...``."""
    try:
        return read(path, *args)
    except InputParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _load_thesaurus(path: str):
    from .thesaurus import parse_ntriples_skos, parse_tsv

    return _parse_file(parse_tsv if str(path).endswith(".tsv") else parse_ntriples_skos, path)


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

    if args.name in ("", ".", "..") or any(sep and sep in args.name for sep in (os.sep, os.altsep)):
        raise UsageError(f"--name must be a file name prefix, got {args.name!r}")
    input_dir = Path(args.input)
    if not input_dir.is_dir():
        raise UsageError(f"no such input directory: {args.input}")
    if Path(args.out).resolve() == input_dir.resolve():
        raise UsageError(f"--out must not be the input directory: {args.out}")
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
        (out / "clean_report.json").write_text(
            json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    manifest.write(out / "clean.manifest.json")
    for lang, path in outputs.items():
        print(f"wrote {path}")
    print(f"wrote {out / 'corpus_stats.csv'}")
    return 0


def cmd_stats(args) -> int:
    from .corpus import recount_stats

    if len({Path(path).resolve() for path in args.corpus_files}) != len(args.corpus_files):
        raise UsageError(f"corpus files are not distinct: {args.corpus_files}")
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
    ``<command>.csv`` and ``<command>.md`` next to the manifest.  The
    metrics return counts alone, so ``tables`` labels each row with the
    model name, s or k it passed them.
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
            model = _parse_file(load, path, name)
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
    import logging  # imported with this module, it raised clean's peak RSS by about 0.13 MB

    from .metrics import coverage, match_map
    from .stringsim import VocabIndex
    from .thesaurus import keyword_tokens, keywords
    from .vectors import load_vocab

    s_values = _check_s_values(args.s or [0.9, 0.95, 1.0])
    lowercase = not args.no_lowercase

    def prepare(th):
        tokenized = []
        for label in keywords(th, args.lang):
            tokenized.append(keyword_tokens(label, lowercase))
            if not tokenized[-1]:
                logging.getLogger(__name__).warning(
                    "keyword %r reduced to no tokens; counted as not covered", label)
        return tokenized

    def build_map(vocab, tokenized):
        return match_map(VocabIndex(vocab.vocab), tokenized, min(s_values))

    def tables(tokenized, maps):
        rows = []
        for name, vocab_size, matches in maps:
            for s in s_values:
                result = coverage(tokenized, s, matches)
                rows.append([name, vocab_size, str(s), result.n_keywords,
                             result.n_covered, pct(result.c)])
        # rows run model by model, so rows[j::len(s_values)] is the j-th threshold of each model
        md_rows = [["Vocab size"] + [str(vocab_size) for _, vocab_size, _ in maps]]
        md_rows += [[f"s={s}"] + [row[-1] for row in rows[j :: len(s_values)]]
                    for j, s in enumerate(s_values)]
        md = f"# Keyword coverage (n={len(tokenized)} keywords, lang={args.lang})\n\n"
        md += markdown_table([""] + [name for name, _, _ in maps], md_rows)
        return ["model", "vocab_size", "s", "n_keywords", "n_covered", "c"], rows, md

    return _vector_command(args, {"s": s_values}, prepare, load_vocab, build_map, tables)


def cmd_diversity(args) -> int:
    from .metrics import diversity_matrix, keyword_queries
    from .neighbors import neighbor_map
    from .thesaurus import keyword_tokens, keywords
    from .vectors import load_vec

    if len(args.model) < 2:
        raise UsageError("diversity needs at least two --model files")
    k_values = _check_k_values(args.k or [10, 50, 200])
    lowercase = not args.no_lowercase
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or None
    _check_directory(cache_dir, "--cache-dir" if args.cache_dir else f"${CACHE_DIR_ENV}")

    def prepare(th):
        tokenized = [keyword_tokens(label, lowercase) for label in keywords(th, args.lang)]
        return tokenized, keyword_queries(tokenized)

    def build_map(model, prepared):
        _, queries = prepared
        neighbors = neighbor_map(model, queries, max(k_values), cache_dir, args.refresh)
        return neighbors.lowered() if lowercase else neighbors

    def tables(prepared, maps):
        tokenized, _ = prepared
        neighbor_maps = {name: neighbors for name, _, neighbors in maps}
        names = list(neighbor_maps)
        rows = []
        md_parts = [f"# Neighborhood diversity (n={len(tokenized)} keywords, lang={args.lang})\n"]
        for k in k_values:
            matrix = diversity_matrix(neighbor_maps, tokenized, k, args.denominator)
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


def relation_pairs(th, lang: str, lowercase: bool, single_word_only: bool):
    """Each relation type's pairs as (descriptor tokens, concept tokens), in
    ``descriptor_pairs`` order, and per relation type the count of edges
    dropped for lacking a label in ``lang`` and of pairs dropped, under
    ``single_word_only``, for a side of more than one token."""
    from .thesaurus import RELATION_TYPES, descriptor_pairs, keyword_tokens

    pairs, no_lang, multiword = {}, {}, {}
    for rel in RELATION_TYPES:
        labels, no_lang[rel] = descriptor_pairs(th, rel, lang)
        tokenized = [(keyword_tokens(d, lowercase), keyword_tokens(c, lowercase)) for d, c in labels]
        pairs[rel] = [(d, c) for d, c in tokenized
                      if not single_word_only or len(d) == len(c) == 1]
        multiword[rel] = len(tokenized) - len(pairs[rel])
    return pairs, no_lang, multiword


def cmd_relations(args) -> int:
    from .metrics import keyword_queries, relational_coverage
    from .neighbors import neighbor_map
    from .vectors import load_vec

    k_values = _check_k_values(args.k or [10, 50, 200])
    lowercase = not args.no_lowercase

    def prepare(th):
        pairs, no_lang, multiword = relation_pairs(th, args.lang, lowercase, args.single_word_only)
        queries = keyword_queries([d for rel_pairs in pairs.values() for d, _ in rel_pairs])
        return pairs, no_lang, multiword, queries

    def build_map(model, prepared):
        *_, queries = prepared
        neighbors = neighbor_map(model, queries, max(k_values))
        return neighbors.lowered() if lowercase else neighbors

    def tables(prepared, maps):
        pairs, no_lang, multiword, _ = prepared
        rows = []
        md_parts = [f"# Relational coverage (lang={args.lang}, oov={args.oov_policy})\n"]
        for k in k_values:
            md_rows = []
            for name, _, neighbors in maps:
                results = relational_coverage(pairs, k, neighbors, args.oov_policy)
                md_row = [name]
                for rel, short in RELATION_COLUMNS:
                    res = results[rel]
                    rows.append([k, name, short, res.n_pairs, res.n_found,
                                 res.n_oov_descriptors, res.oov_policy, pct(res.r)])
                    md_row.append(pct(res.r) if res.n_pairs else "0.00 (n=0)")
                md_rows.append(md_row)
            md_parts.append(markdown_table([f"top-{k}"] + [short for _, short in RELATION_COLUMNS], md_rows))

        def per_relation(counts) -> str:
            return ", ".join(f"{short}={counts[rel]}" for rel, short in RELATION_COLUMNS)

        n_pairs = {rel: len(rel_pairs) for rel, rel_pairs in pairs.items()}
        md_parts.append(
            f"Pairs per relation: {per_relation(n_pairs)}"
            f"; dropped (no label in lang): {per_relation(no_lang)}"
            f"; dropped (multiword): {per_relation(multiword)}\n"
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
        model = _parse_file(load_vec, args.model, _model_name(args.model))
        manifest.add_input(args.model, model.source_digest)
        try:
            neighbors = top_k(model, args.word, args.k)
        except EmbevalError as exc:
            raise UsageError(str(exc)) from exc
        rows = [[rank, token, f"{score:.6f}"] for rank, (token, score) in enumerate(neighbors, 1)]
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
        _check_directory(args.out, "--out")
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
