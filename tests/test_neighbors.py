import json
import logging
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embeval.errors import CacheFormatError, UnknownTokenError, ZeroVectorError
from embeval.neighbors import (
    NeighborMap,
    _certified,
    _exact_scores,
    _NORM_SLACK,
    cache_load,
    cache_path,
    cache_store,
    neighbor_map,
    queryable,
    top_k,
    top_k_batch,
)
from conftest import make_model, random_model, random_rows, top_tokens
from oracles import exact_dot, knn_oracle, raw_cosine


def test_unit_matrix_unit_rows_unchanged():
    rows = [[1.0, 0.0], [0.0, 1.0]]
    model = make_model("m", ["a", "b"], rows)
    unit = model.unit_matrix()
    assert np.allclose(unit, rows, atol=1e-9)
    again = make_model("m", ["a", "b"], unit).unit_matrix()
    assert np.array_equal(again, unit)


def test_unit_matrix_345():
    model = make_model("m", ["a"], [[3.0, 4.0]])
    assert model.unit_matrix()[0].tolist() == pytest.approx([0.6, 0.8])


def test_unit_matrix_keeps_zero_rows():
    model = make_model("m", ["a", "z"], [[1.0, 1.0], [0.0, 0.0]])
    assert model.zero_rows == {1}
    assert model.unit_matrix()[1].tolist() == [0.0, 0.0]


def test_top_k_zero_k():
    model = make_model("m", ["a", "b"], [[1, 0], [0, 1]])
    assert top_k(model, "a", 0) == []


def test_top_k_planted_example():
    model = make_model("m", ["a", "b", "c", "d"], [[1, 0], [0.9, 0.1], [0, 1], [-1, 0]])
    assert top_tokens(model, "a", 2) == ["b", "c"]
    # brute force across all cosines agrees
    assert [t for t, _ in knn_oracle(model, "a", 2)] == ["b", "c"]


def test_top_k_tie_breaks_by_vocab_index():
    # b and c are identical rows: tie at the same score, b (lower index) first
    model = make_model("m", ["q", "b", "c"], [[1, 0], [0.5, 0.5], [0.5, 0.5]])
    assert top_tokens(model, "q", 2) == ["b", "c"]
    model2 = make_model("m", ["q", "c", "b"], [[1, 0], [0.5, 0.5], [0.5, 0.5]])
    assert top_tokens(model2, "q", 2) == ["c", "b"]


def test_top_k_excludes_query_and_zero_rows():
    model = make_model("m", ["q", "z", "a"], [[1, 0], [0, 0], [0.5, 0.1]])
    ns = top_k(model, "q", 5)
    assert [t for t, _ in ns] == ["a"]
    assert len(ns) == 1  # shorter than k: only one candidate exists


def test_top_k_unknown_and_zero_query():
    model = make_model("m", ["q", "z"], [[1, 0], [0, 0]])
    with pytest.raises(UnknownTokenError):
        top_k(model, "nope", 1)
    with pytest.raises(ZeroVectorError):
        top_k(model, "z", 1)


def test_top_k_matches_oracle_on_random_models():
    rng = np.random.default_rng(77)
    for trial in range(150):
        n = int(rng.integers(3, 60))
        dim = int(rng.integers(2, 9))
        model = random_model(rng, f"m{trial}", n, dim,
                             n_duplicate_rows=int(rng.integers(0, 4)))
        query = model.vocab[int(rng.integers(0, n))]
        if model.index[query] in model.zero_rows:
            continue
        k = int(rng.integers(0, n + 2))
        ns = top_k(model, query, k)
        expected = knn_oracle(model, query, k)
        assert [t for t, _ in ns] == [t for t, _ in expected]
        assert [s for _, s in ns] == [s for _, s in expected]


def test_top_k_scores_match_raw_cosine():
    rng = np.random.default_rng(3)
    rows = random_rows(rng, 40, 6)
    model = make_model("m", [f"w{i:04d}" for i in range(40)], rows)
    ns = top_k(model, model.vocab[0], 10)
    for token, score in ns:
        u = rows[model.index[model.vocab[0]]]
        v = rows[model.index[token]]
        assert score == pytest.approx(raw_cosine(u, v), abs=1e-12)


def test_top_k_prefix_containment():
    rng = np.random.default_rng(4)
    model = random_model(rng, "m", 50, 5, n_duplicate_rows=3)
    query = model.vocab[7]
    previous = []
    for k in (1, 3, 5, 10, 25, 49):
        tokens = top_tokens(model, query, k)
        assert tokens[: len(previous)] == previous
        previous = tokens


def test_top_k_scale_invariance():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((30, 4))
    model = make_model("m", [f"w{i}" for i in range(30)], base)
    order = top_tokens(model, "w3", 10)
    scaled = base.copy()
    scaled[12] *= 37.5
    model2 = make_model("m", [f"w{i}" for i in range(30)], scaled)
    assert top_tokens(model2, "w3", 10) == order


def test_batch_singleton_equals_top_k():
    rng = np.random.default_rng(9)
    model = random_model(rng, "m", 25, 4)
    single = top_tokens(model, "w0003", 5)
    batch = top_k_batch(model, ["w0003"], 5)
    assert batch.neighbor_sets == [("w0003", tuple(single))]


def test_batch_skips_unknown_queries():
    model = make_model("m", ["a", "b"], [[1, 0], [0, 1]])
    batch = top_k_batch(model, ["a", "zzz"], 1)
    assert [q for q, _ in batch.neighbor_sets] == ["a"]


def test_batch_shape_independence():
    rng = np.random.default_rng(10)
    # blocks of 1, 2 and 5 queries; the 1,003-row model reaches past the
    # last full block of a BLAS kernel, with copies of row 3 in its tail
    for n, dim in ((60, 5), (60, 16), (60, 40), (1_003, 40)):
        rows = random_rows(rng, n, dim, n_duplicate_rows=4, n_zero_rows=2)
        rows[[n // 2, n - 3, n - 2, n - 1]] = rows[3]
        model = make_model("m", [f"w{i:04d}" for i in range(n)], rows)
        queries = [model.vocab[i] for i in (3, 9, 27, 41, 55, 0) if i not in model.zero_rows]
        base = dict(top_k_batch(model, queries, 8).neighbor_sets)
        permuted = dict(top_k_batch(model, list(reversed(queries)), 8).neighbor_sets)
        halves = {
            **dict(top_k_batch(model, queries[:3], 8).neighbor_sets),
            **dict(top_k_batch(model, queries[3:], 8).neighbor_sets),
        }
        singletons = {}
        for q in queries:
            singletons.update(top_k_batch(model, [q], 8).neighbor_sets)
        exact = {q: tuple(t for t, _ in knn_oracle(model, q, 8)) for q in queries}
        assert base == permuted == halves == singletons == exact


def test_batch_moderate_scale_smoke():
    # 5,000-word model, 200 queries: stays well inside an interactive time budget
    import time

    rng = np.random.default_rng(11)
    model = random_model(rng, "big", 5000, 32)
    queries = [model.vocab[int(i)] for i in rng.integers(0, 5000, size=200)]
    start = time.perf_counter()
    result = top_k_batch(model, queries, 10)
    elapsed = time.perf_counter() - start
    assert len(result.neighbor_sets) == len(queries)
    assert elapsed < 10.0
    query, tokens = result.neighbor_sets[0]
    assert list(tokens) == top_tokens(model, query, 10)


def test_batch_search_holds_at_most_two_score_blocks():
    # a block of max(1, dim // 8) queries scores against all n rows; its
    # scores and their argpartition are two blocks of eight-byte values,
    # and a finished block must be freed before the next one is scored
    rng = np.random.default_rng(7)
    n, dim = 50_000, 64
    model = make_model("m", [f"w{i}" for i in range(n)], rng.integers(-9, 10, (n, dim)).astype(float))
    block_bytes = (dim // 8) * n * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = top_k_batch(model, model.vocab[: 3 * (dim // 8)], 10)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(result.neighbor_sets) == 3 * (dim // 8)
    assert peak < 2.2 * block_bytes


def test_certification_needs_every_gap_above_the_bound():
    for dim in (1, 50, 300):
        n_eps = (dim + 2) * 2.0**-52
        bound = 2 * n_eps / (1 - n_eps) * (1 + _NORM_SLACK)
        above = np.nextafter(bound, 1.0)
        assert _certified(np.array([[0.0, -bound]]), dim).tolist() == [False]
        assert _certified(np.array([[0.0, -above]]), dim).tolist() == [True]
        assert _certified(np.array([[0.0, -above, -above]]), dim).tolist() == [False]
        assert _certified(np.array([[0.0], [1.0]]), dim).tolist() == [True, True]


def test_near_duplicate_rows_are_reranked_exactly():
    # one base row plus 1e-15 noise: the GEMM rounds the near-equal scores
    # and often orders them unlike their exact scores
    raw_differs = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal(48) + 1e-15 * rng.standard_normal((60, 48))
        model = make_model("m", [f"w{i:02d}" for i in range(60)], rows)
        queries = model.vocab[::7]
        batch = top_k_batch(model, queries, 10)
        assert batch.reranked == len(queries)
        expected = {q: [t for t, _ in knn_oracle(model, q, 10)] for q in queries}
        assert {q: list(t) for q, t in batch.neighbor_sets} == expected
        assert {q: top_tokens(model, q, 10) for q in queries} == expected
        unit = model.unit_matrix()
        query_rows = [model.index[q] for q in queries]
        scores = unit[query_rows] @ unit.T
        scores[np.arange(len(queries)), query_rows] = -np.inf
        for query, row in zip(queries, scores):
            raw = [model.vocab[i] for i in np.lexsort((np.arange(60), -row))[:10]]
            raw_differs += raw != expected[query]
    assert raw_differs > 0  # the fixture does separate the two orders


# Rows holding one vector in a 1,003-row file: at the head, in the middle
# and past the last full block of a BLAS kernel, where a matrix-vector
# product rounds the same dot product differently.
_COPIES = [0, 1, 2, 3, 4, 5, 7, 500, 998, 999, 1000, 1001, 1002]


@pytest.mark.parametrize("dim", [50, 100, 300])
def test_identical_rows_rank_in_index_order(dim):
    rng = np.random.default_rng(dim)
    rows = rng.standard_normal((1_003, dim))
    rows[_COPIES] = rows[0]
    # 50 queries near the copies: the copies and the other 49 are their top 62
    rows[10:60] = rows[0] + 0.3 * rng.standard_normal((50, dim))
    model = make_model("m", [f"w{i:04d}" for i in range(1_003)], rows)
    unit = model.unit_matrix()
    # np.linalg.norm is numpy's own pairwise sum, not BLAS, so the copies
    # normalize to the same bits wherever they sit
    assert all(unit[i].tobytes() == unit[0].tobytes() for i in _COPIES)
    copies = [model.vocab[i] for i in _COPIES]
    queries = model.vocab[10:60]

    def disordered(query, tokens):
        return [t for t in tokens if t in copies] != copies

    assert [q for q in queries if disordered(q, top_tokens(model, q, 62))] == []
    batch = top_k_batch(model, queries, 62)
    assert [q for q, tokens in batch.neighbor_sets if disordered(q, tokens)] == []
    assert top_k(model, queries[0], 1_002) == knn_oracle(model, queries[0], 1_002)


# full 53-bit mantissas where products straddle the smallest one whose
# TwoProduct error terms do not underflow
_NEAR_UNDERFLOW = st.builds(
    lambda sign, low, exp: math.ldexp(sign * ((1 << 52) | low), exp),
    st.sampled_from([1, -1]), st.integers(0, 2**52 - 1), st.integers(-560, -500),
)
_COMPONENTS = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022]),
    st.floats(-(2.0**-1022), 2.0**-1022),
    _NEAR_UNDERFLOW,
)


@st.composite
def _cancelling_rows(draw):
    """Rows ``x + x`` and ``y + z``, where z is -y moved by an ulp: their
    products cancel to the low bits of the products, which TwoProduct loses
    where it underflows."""
    components = draw(st.sampled_from([_NEAR_UNDERFLOW, _COMPONENTS]))
    x = draw(st.lists(components, min_size=1, max_size=2))
    y = draw(st.lists(components, min_size=len(x), max_size=len(x)))
    steps = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(x), max_size=len(x)))
    return [x + x, y + [-(v + step * math.ulp(v)) for v, step in zip(y, steps)]]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_scores_equal_the_rational_dot_product(data):
    # subnormal, signed zero, near-underflow and unit-magnitude components,
    # on both sides of the threshold below which TwoProduct could underflow
    dim = data.draw(st.integers(1, 8))
    row = st.lists(_COMPONENTS, min_size=dim, max_size=dim)
    rows = data.draw(_cancelling_rows() | st.lists(row, min_size=2, max_size=6))
    got = _exact_scores(np.array(rows), 0, np.arange(1, len(rows)))
    assert got == [float(exact_dot(rows[0], y)) for y in rows[1:]]


def test_cache_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    model = random_model(rng, "toy", 30, 4)
    queries = model.vocab[:10]
    stored = neighbor_map(model, queries, 5)
    path = tmp_path / "toy.k5.neighbors.tsv"
    cache_store(path, model, stored)
    loaded = cache_load(path, model, 5)
    assert set(loaded.tokens) == set(queries)
    assert loaded == stored


def test_cache_detects_digest_mismatch(tmp_path):
    rng = np.random.default_rng(13)
    model = random_model(rng, "toy", 20, 4)
    other = random_model(rng, "toy", 20, 4)
    path = tmp_path / "c.tsv"
    cache_store(path, model, neighbor_map(model, model.vocab[:4], 3))
    assert cache_load(path, model, 3) is not None
    assert cache_load(path, other, 3) is None  # the caller rebuilds
    assert cache_load(path, other, 2) is None  # whatever the capacity asked for


def test_cache_capacity_serves_every_smaller_k(tmp_path):
    rng = np.random.default_rng(15)
    model = random_model(rng, "toy", 20, 4)
    path = tmp_path / "c.tsv"
    cache_store(path, model, neighbor_map(model, model.vocab[:4], 3))
    for k in (0, 2, 3):
        loaded = cache_load(path, model, k)
        assert loaded.k == 3
        for q, tokens in loaded.tokens.items():
            assert list(tokens[:k]) == top_tokens(model, q, k)
    assert cache_load(path, model, 4) is None  # below capacity: the caller rebuilds


def test_cache_write_is_atomic(tmp_path):
    rng = np.random.default_rng(14)
    model = random_model(rng, "toy", 10, 3)
    path = tmp_path / "c.tsv"
    good = neighbor_map(model, model.vocab[:2], 2)
    cache_store(path, model, good)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        cache_store(path, model, NeighborMap(1, good.tokens))  # over capacity aborts mid-write
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_cache_records_empty_neighborhoods(tmp_path):
    # one real word, the rest zero rows: "a" is queryable but has no neighbors
    model = make_model("m", ["a", "z1", "z2"], [[1, 0], [0, 0], [0, 0]])
    first = neighbor_map(model, ["a", "z1"], 5, tmp_path)
    assert first == NeighborMap(5, {"a": ()}) and top_k(model, "a", 5) == []
    text = Path(cache_path(tmp_path, "m")).read_text(encoding="utf-8")
    assert text.splitlines()[1:] == ["a"]
    assert neighbor_map(model, ["a", "z1"], 5, tmp_path) == first


@pytest.mark.parametrize("extra", ["a\t2\tb\t0.000000000", "c\t0\nc\t1\ta\t0.500000000"])
def test_cache_rejects_ranks_beyond_a_record(tmp_path, extra):
    # per-rank lines of the earlier layout appended to a file of capacity 1:
    # a repeated query, or more neighbors than the capacity
    model = make_model("m", ["a", "b", "c"], [[1, 0], [0, 1], [1, 1]])
    path = tmp_path / "m.neighbors.tsv"
    cache_store(path, model, neighbor_map(model, ["a"], 1))
    path.write_text(path.read_text(encoding="utf-8") + extra + "\n", encoding="utf-8")
    with pytest.raises(CacheFormatError):
        cache_load(path, model, 1)


@pytest.mark.parametrize("body, line_no, message", [
    (["a\tb\tc"], 2, "2 neighbors of 'a' exceed the capacity 1"),
    (["a\tb", "a\tc"], 3, "query 'a' repeated"),
    (["b\tc", "a\ta"], 3, "query 'a' lists itself"),
    (["a\tb", "c\t"], 3, "empty field"),
])
def test_cache_rejects_malformed_lines(tmp_path, body, line_no, message):
    model = make_model("m", ["a", "b", "c"], [[1, 0], [0, 1], [1, 1]])
    path = tmp_path / "m.neighbors.tsv"
    cache_store(path, model, NeighborMap(1, {}))
    header = path.read_text(encoding="utf-8").splitlines()[0]
    path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
    with pytest.raises(CacheFormatError, match=f"^line {line_no}: {message}") as exc:
        cache_load(path, model, 1)
    assert exc.value.line_no == line_no


def test_neighbor_map_searches_each_distinct_query_once(monkeypatch):
    rng = np.random.default_rng(16)
    model = random_model(rng, "m", 30, 4, n_zero_rows=2)
    queries = [model.vocab[i] for i in (1, 5, 1, 7, 5)] + ["fehlt"]
    batches = []
    real = top_k_batch

    def spy(model, queries, k):
        batches.append(list(queries))
        return real(model, queries, k)

    monkeypatch.setattr("embeval.neighbors.top_k_batch", spy)
    result = neighbor_map(model, queries, 6)
    wanted = sorted({q for q in queries if queryable(model, q)})
    assert batches == [wanted]
    assert result == NeighborMap(6, {q: tuple(top_tokens(model, q, 6)) for q in wanted})


def test_neighbor_map_cache_policy(tmp_path):
    rng = np.random.default_rng(17)
    model = random_model(rng, "toy", 30, 4)
    queries = model.vocab[:6]
    path = Path(cache_path(tmp_path, "toy"))

    def capacity():
        return json.loads(path.read_text(encoding="utf-8").splitlines()[0])["k"]

    neighbor_map(model, queries, 3, tmp_path)
    assert capacity() == 3
    # a smaller stored capacity is rebuilt at the larger k
    assert neighbor_map(model, queries, 8, tmp_path) == neighbor_map(model, queries, 8)
    assert capacity() == 8
    # a larger stored capacity serves a smaller k and is left as it is; the
    # map served holds only the queries asked for
    before = path.read_bytes()
    served = neighbor_map(model, queries[:4], 5, tmp_path)
    assert path.read_bytes() == before
    assert {q: list(t[:5]) for q, t in served.tokens.items()} == {
        q: top_tokens(model, q, 5) for q in queries[:4]
    }
    # a missing query rebuilds the file at the k asked for, with the queries asked for
    more = model.vocab[:7]
    assert neighbor_map(model, more, 5, tmp_path) == neighbor_map(model, more, 5)
    assert capacity() == 5
    assert set(cache_load(path, model, 5).tokens) == set(more)
    # so do other vectors under the same model name
    other = random_model(rng, "toy", 30, 4)
    assert neighbor_map(other, queries, 4, tmp_path) == neighbor_map(other, queries, 4)
    assert capacity() == 4
    assert cache_load(path, other, 4) is not None


def test_cache_of_a_model_built_in_memory_is_keyed_by_its_exact_rows(tmp_path):
    # the rows agree in their first 6 significant digits, which is all a
    # "%.6g" writer keeps; their files, and so their digests, differ
    rows = [[1, 0.1234555], [1, 0.1234556], [1, 0.1234564]]
    m1 = make_model("m", ["q", "x", "y"], rows)
    m2 = make_model("m", ["q", "x", "y"], [rows[0], rows[2], rows[1]])
    assert neighbor_map(m1, ["q"], 1, tmp_path).tokens == {"q": ("x",)}
    # m1's file does not serve m2: it is rebuilt from m2's rows
    assert neighbor_map(m2, ["q"], 1, tmp_path).tokens == {"q": ("y",)}
    assert cache_load(cache_path(tmp_path, "m"), m2, 1).tokens == {"q": ("y",)}


def test_cache_of_a_model_built_in_memory_serves_the_next_call(tmp_path, monkeypatch):
    rows = random_rows(np.random.default_rng(21), 30, 4)
    vocab = [f"w{i:04d}" for i in range(30)]
    first = make_model("m", vocab, rows)
    stored = neighbor_map(first, vocab[:6], 5, tmp_path)
    # an equal model built again has the same digest, so the file serves it
    again = make_model("m", vocab, rows.copy())
    assert again.source_digest == first.source_digest

    def refuse(*args, **kwargs):
        raise AssertionError("the cache was not used")

    monkeypatch.setattr("embeval.neighbors.top_k_batch", refuse)
    assert neighbor_map(again, vocab[:6], 5, tmp_path) == stored


@st.composite
def tie_models(draw):
    """Small models with integer rows: exact ties, duplicate rows and zero rows.

    Up to dimension 4 a block holds one query; from 16 on, two or more.
    """
    dim = draw(st.one_of(st.integers(1, 4), st.integers(16, 20)))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=1, max_size=16))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
    rows += [[0] * dim] * draw(st.integers(0, 3))
    return make_model("m", [f"w{i:02d}" for i in range(len(rows))], rows)


@st.composite
def gaussian_models(draw):
    """Models with Gaussian float rows, whose top-k orders mostly certify.

    Dimensions 16 to 40 put 2 to 5 queries in a block; a few rows are zero.
    """
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(16, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_model(rng, "m", n, dim, n_zero_rows=draw(st.integers(0, 2)))


def _assert_prefixes_equal_top_k(model, queries, capacity):
    result = neighbor_map(model, queries, capacity)
    assert set(result.tokens) == {q for q in queries if queryable(model, q)}
    assert result.k == capacity
    for query, tokens in result.tokens.items():
        exact = [t for t, _ in knn_oracle(model, query, capacity)]
        assert list(tokens) == exact
        for k in range(capacity + 1):
            assert top_tokens(model, query, k) == exact[:k]


@settings(max_examples=150, deadline=None)
@given(model=tie_models(), data=st.data())
def test_provider_prefix_equals_top_k(model, data):
    capacity = data.draw(st.integers(0, len(model.vocab) + 1))
    _assert_prefixes_equal_top_k(model, model.vocab, capacity)


@settings(max_examples=100, deadline=None)
@given(model=gaussian_models(), data=st.data())
def test_provider_prefix_equals_top_k_on_gaussian_rows(model, data):
    capacity = data.draw(st.integers(0, len(model.vocab) + 1))
    queries = data.draw(st.lists(st.sampled_from(model.vocab), max_size=12))
    _assert_prefixes_equal_top_k(model, queries, capacity)


def _logged_counts(records) -> dict[str, tuple[int, int, int, int]]:
    counts = {}
    for record in records:
        found = re.fullmatch(
            r"(\w+): searched (\d+) queries at k=\d+: (\d+) certified, "
            r"(\d+) re-ranked exactly over (\d+) boundary rows",
            record.getMessage(),
        )
        if found:
            counts[found[1]] = tuple(int(found[i]) for i in (2, 3, 4, 5))
    return counts


def test_neighbor_map_logs_certified_and_reranked_counts(caplog):
    caplog.set_level(logging.DEBUG, logger="embeval.neighbors")
    rng = np.random.default_rng(40)
    gaussian = random_model(rng, "gauss", 200, 32)
    duplicated = random_model(rng, "dup", 200, 32, n_duplicate_rows=20)
    neighbor_map(gaussian, gaussian.vocab[:30], 20)
    neighbor_map(duplicated, duplicated.vocab, 20)
    counts = _logged_counts(caplog.records)
    assert counts["gauss"] == (30, 30, 0, 0)
    searched, certified, reranked, boundary = counts["dup"]
    assert searched == 200 and certified + reranked == 200 and reranked > 0
    assert boundary >= 20 * reranked  # each holds at least the top 20


@settings(max_examples=100, deadline=None)
@given(model=tie_models(), data=st.data())
def test_cache_round_trip_prefix_equals_fresh_search(model, data):
    capacity = data.draw(st.integers(0, len(model.vocab) + 1))
    stored = neighbor_map(model, model.vocab, capacity)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.neighbors.tsv"
        cache_store(path, model, stored)
        for k in range(capacity + 1):
            loaded = cache_load(path, model, k)
            assert set(loaded.tokens) == set(stored.tokens)
            for query, tokens in loaded.tokens.items():
                assert list(tokens[:k]) == top_tokens(model, query, k)
