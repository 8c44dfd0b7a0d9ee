import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embeval import vectors
from embeval.errors import VecFormatError
from embeval.neighbors import top_k
from embeval.vectors import EmbeddingModel, _normalize_matrix, load_vec, load_vocab
from conftest import make_model, save_vec
from oracles import load_vec_oracle


def _vec_bytes(*lines: str) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _load_raw(data, name: str = "m") -> tuple[EmbeddingModel, np.ndarray]:
    """``load_vec``'s model and the raw rows its parse layer handed to the
    store, in file order; the model keeps only their unit rows."""
    blocks = []
    store = vectors._Body._store

    def spy(body, block):
        blocks.append(block.copy())
        store(body, block)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vectors._Body, "_store", spy)
        model = load_vec(data, name)
    return model, np.concatenate(blocks) if blocks else np.empty((0, model.dim))


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_load_header_echo():
    data = _vec_bytes(
        "3 4",
        "haus 0.1 0.2 0.3 0.4",
        "macht 1 2 3 4",
        "staat -1 0 0.5 2e-3",
    )
    model, raw = _load_raw(data, "toy")
    assert len(model.vocab) == 3
    assert model.dim == 4
    assert model.vocab == ["haus", "macht", "staat"]
    assert raw[2][3] == pytest.approx(0.002)
    _assert_same_bits(model.unit_matrix(), _normalize_matrix(raw))


def test_load_duplicate_token_names_line_3():
    data = _vec_bytes("2 3", "haus 0.1 0.2 0.3", "haus 0.0 0.0 1.0")
    with pytest.raises(VecFormatError, match="line 3") as excinfo:
        load_vec(data, "dup")
    assert "haus" in str(excinfo.value)


def test_load_malformed_header():
    for header in ("3", "a 4", "3 4 5", "3\t4", ""):
        with pytest.raises(VecFormatError):
            load_vec(_vec_bytes(header, "x 1 2 3 4"), "bad")


def test_load_wrong_component_count_reports_line():
    data = _vec_bytes("2 3", "haus 0.1 0.2 0.3", "macht 1 2")
    with pytest.raises(VecFormatError, match="line 3"):
        load_vec(data, "bad")


def test_load_count_mismatch_at_eof():
    data = _vec_bytes("3 2", "a 1 2", "b 3 4")
    with pytest.raises(VecFormatError, match="declares 3"):
        load_vec(data, "bad")


def test_load_rejects_non_finite():
    data = _vec_bytes("1 2", "a nan 1")
    with pytest.raises(VecFormatError, match="line 2"):
        load_vec(data, "bad")


def test_load_rejects_trailing_space():
    data = _vec_bytes("1 2", "a 1 2 ")
    with pytest.raises(VecFormatError, match="line 2"):
        load_vec(data, "bad")


def test_load_rejects_double_space():
    data = _vec_bytes("1 2", "a 1  2")
    with pytest.raises(VecFormatError, match="line 2"):
        load_vec(data, "bad")


def test_load_rejects_bom():
    data = "﻿1 2\na 1 2\n".encode("utf-8")
    with pytest.raises(VecFormatError):
        load_vec(data, "bad")


def test_load_accepts_scientific_and_negative_literals():
    model, raw = _load_raw(_vec_bytes("1 3", "a -1.5e-2 +3 .5"), "sci")
    assert raw[0].tolist() == pytest.approx([-0.015, 3.0, 0.5])
    _assert_same_bits(model.unit_matrix(), _normalize_matrix(raw))


def test_zero_vectors_flagged(caplog):
    for loader in (load_vec, load_vocab):
        caplog.clear()
        with caplog.at_level("WARNING"):
            model = loader(_vec_bytes("2 2", "a 0 0", "b 1 0"), "zeros")
        assert model.zero_rows == {0}
        assert caplog.text.count("zeros: 1 zero vector(s) in input") == 1


@pytest.mark.parametrize("space", ["\t", "\r", "\x1c", "\xa0"])
def test_load_rejects_token_holding_other_whitespace(space):
    with pytest.raises(VecFormatError) as excinfo:
        load_vec(_vec_bytes("2 1", "a 1", f"b{space}c 2"), "ws")
    assert str(excinfo.value) == f"line 3: token {'b' + space + 'c'!r} contains whitespace"


def test_huge_row_ranks_by_its_true_cosine(recwarn):
    model = load_vec(_vec_bytes("3 2", "a 1e200 1e200", "b 1 1", "c 1 0"), "huge")
    entries = top_k(model, "b", 2)
    assert [t for t, _ in entries] == ["a", "c"]
    assert entries[0][1] == pytest.approx(1.0)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_tiny_row_is_not_a_zero_row(caplog):
    with caplog.at_level("WARNING"):
        model = load_vec(_vec_bytes("3 2", "a 1e-200 1e-200", "b 1 1", "c 1 0"), "tiny")
    assert model.zero_rows == frozenset()
    assert "zero vector" not in caplog.text
    entries = top_k(model, "b", 2)
    assert [t for t, _ in entries] == ["a", "c"]
    assert entries[0][1] == pytest.approx(1.0)


_COMPONENTS = st.sampled_from(
    [0.0, -0.0, 1.0, -2.5, 5e-324, 1e-200, 1e-160, 1.5e-154, 1e154, 1e200, -1.7e308]
)
# the least norm whose squares sum to a normal float
_DIRECT_NORM = np.sqrt(np.finfo(np.float64).tiny)
# the least magnitude of a nonzero unit component
_FLUSH = 2.0**-484


def _flushed(row: np.ndarray) -> np.ndarray:
    """``row`` with each component below ``_FLUSH`` in magnitude a zero of its sign."""
    return np.array([math.copysign(0.0, v) if abs(v) < _FLUSH else v for v in row.tolist()])


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 3).flatmap(
    lambda dim: st.lists(st.lists(_COMPONENTS | st.floats(-1e6, 1e6), min_size=dim, max_size=dim),
                         min_size=1, max_size=6)
))
def test_unit_rows_keep_the_direct_formula_where_it_is_defined(rows):
    matrix = np.array(rows, dtype=np.float64)
    model = make_model("n", [f"w{i}" for i in range(len(rows))], matrix)
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
        direct = matrix / np.where(norms == 0.0, 1.0, norms)[:, None]
    unit = model.unit_matrix()
    for i, row in enumerate(matrix):
        if not row.any():
            assert i in model.zero_rows
            assert not unit[i].any()
            continue
        assert i not in model.zero_rows
        if _DIRECT_NORM <= norms[i] < np.inf:
            assert np.array_equal(unit[i].view(np.uint64), _flushed(direct[i]).view(np.uint64))
        else:
            scaled = row / np.abs(row).max()
            assert unit[i] == pytest.approx(_flushed(scaled / np.linalg.norm(scaled)))
        assert ((unit[i] == 0.0) | (np.abs(unit[i]) >= _FLUSH)).all()
        assert np.linalg.norm(unit[i]) == pytest.approx(1.0)


def test_contains_is_case_sensitive():
    model = load_vec(_vec_bytes("1 2", "macht 1 0"), "case")
    assert "macht" in model
    assert "Macht" not in model
    assert "herrschaft" not in model


def test_vector_returns_stored_row():
    model, raw = _load_raw(_vec_bytes("2 2", "a 1 2", "b 3 4"), "rows")
    assert raw[model.index["b"]].tolist() == [3.0, 4.0]
    unit = model.unit_matrix()
    assert not unit.flags.writeable
    assert unit[model.index["b"]].tolist() == [0.6, 0.8]
    _assert_same_bits(unit, _normalize_matrix(raw))
    for i, token in enumerate(model.vocab):
        assert np.array_equal(unit[model.index[token]], unit[i])


def test_unit_matrix_rows_have_unit_norm():
    rng = np.random.default_rng(5)
    model = make_model("r", [f"w{i}" for i in range(20)], rng.standard_normal((20, 7)))
    unit = model.unit_matrix()
    for token in model.vocab:
        assert abs(np.linalg.norm(unit[model.index[token]]) - 1.0) < 1e-6


def test_load_is_deterministic():
    rng = np.random.default_rng(11)
    buf = io.BytesIO()
    save_vec([f"w{i}" for i in range(30)], rng.standard_normal((30, 5)), buf)
    data = buf.getvalue()
    m1 = load_vec(data, "w")
    m2 = load_vec(data, "w")
    assert m1.vocab == m2.vocab
    assert np.array_equal(m1.unit_matrix(), m2.unit_matrix())
    assert m1.source_digest == m2.source_digest


def test_write_load_rewrite_round_trip():
    # 100 random words, dim 50: the writer's first pass canonicalizes the
    # numbers, after which load/write is the identity on the body lines.
    rng = np.random.default_rng(42)
    vocab = [f"wort{i:03d}" for i in range(100)]

    first = io.BytesIO()
    save_vec(vocab, rng.standard_normal((100, 50)) * 10, first)
    loaded, raw = _load_raw(first.getvalue(), "rt")
    second = io.BytesIO()
    save_vec(loaded.vocab, raw, second)
    assert first.getvalue() == second.getvalue()
    _assert_same_bits(loaded.unit_matrix(), _normalize_matrix(raw))


# the rules both loaders apply to tokens, components and the header
@pytest.mark.parametrize("vocab, rows, dim, message", [
    pytest.param(["a", ""], [[1.0], [2.0]], 1, "line 3: empty token", id="empty"),
    pytest.param(["a", "b\xa0c"], [[1.0], [2.0]], 1, "line 3: token 'b\\xa0c' contains whitespace",
                 id="nbsp"),
    pytest.param(["a", "b", "a"], [[1.0], [2.0], [3.0]], 1, "line 4: duplicate token 'a'",
                 id="repeat"),
    pytest.param(["a", "b"], [[1.0], [np.nan]], 1, "line 3: non-finite vector component",
                 id="nan"),
    pytest.param(["a", "b", "c"], [[1.0, 0.0], [2.0, 0.0]], 2,
                 "header declares 3 rows but file has 2", id="shape"),
    pytest.param([], [], 0, "line 1: dimension must be positive, got 0", id="dim0"),
])
def test_model_rejects_what_the_loaders_reject(vocab, rows, dim, message):
    body = [" ".join([token, *map(repr, row)]) for token, row in zip(vocab, rows)]
    data = _vec_bytes(f"{len(vocab)} {dim}", *body)
    for loader in (load_vec, load_vocab):
        with pytest.raises(VecFormatError) as excinfo:
            loader(data, "m")
        assert str(excinfo.value) == message


def test_make_model_reads_its_rows_back_bit_for_bit(monkeypatch):
    # tests build their models through load_vec; a row written with fewer
    # digits would round the unit rows a property test compares
    rows = np.array([[-0.0, 5e-324], [1.7976931348623157e308, 0.1], [0.0, 0.0]])
    parsed = []
    store = vectors._Body._store

    def spy(body, block):
        parsed.append(block.copy())
        store(body, block)

    monkeypatch.setattr(vectors._Body, "_store", spy)
    model = make_model("m", ["a", "b", "z"], rows)
    _assert_same_bits(np.concatenate(parsed), rows)
    _assert_same_bits(model.unit_matrix(), _normalize_matrix(rows))
    assert model.zero_rows == {2}


def test_empty_model_loads():
    model = load_vec(b"0 3\n", "empty")
    assert len(model.vocab) == 0
    assert model.unit_matrix().shape == (0, 3)


def test_writer_format_is_strict(tmp_path):
    path = tmp_path / "m.vec"
    save_vec(["a", "b"], [[0.5, 1.25], [-3.0, 2e-7]], path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "2 2"
    assert lines[1] == "a 0.5 1.25"
    assert lines[2] == "b -3 2e-07"
    assert text.endswith("\n")
    assert "  " not in text and " \n" not in text


def test_load_absurd_dimension_is_format_error():
    # the header's dimension must be backed by a body line before it sizes
    # an array
    with pytest.raises(VecFormatError, match="line 2: expected token plus 4611686018427387904 components, found 1"):
        load_vec(b"1 4611686018427387904\na 1\n", "x")
    with pytest.raises(VecFormatError, match="line 1: dimension 4611686018427387904 is too large"):
        load_vec(b"0 4611686018427387904\n", "x")
    # nor does its row count: only the rows the file holds are reported
    with pytest.raises(VecFormatError, match="^header declares 99999999999999999999 rows but file has 1$"):
        load_vec(b"99999999999999999999 1\na 1\n", "x")
    with pytest.raises(VecFormatError, match="line 1: malformed header"):
        load_vec(b"1" * 5000 + b" 1\n", "x")
    # load_vocab sizes no array, so only the dimension of a file without
    # rows is too large for load_vec alone; the other errors are the same
    assert load_vocab(b"0 4611686018427387904\n", "x").vocab == []
    for data in (
        b"1 4611686018427387904\na 1\n", b"99999999999999999999 1\na 1\n", b"1" * 5000 + b" 1\n"
    ):
        with pytest.raises(VecFormatError) as vec_error:
            load_vec(data, "x")
        with pytest.raises(VecFormatError) as vocab_error:
            load_vocab(data, "x")
        assert str(vocab_error.value) == str(vec_error.value)


def test_load_non_decimal_header_digits_are_format_error():
    # "²" is a digit to str.isdigit() but not a number to int()
    with pytest.raises(VecFormatError, match="line 1: malformed header"):
        load_vec(_vec_bytes("² 1", "a 1"), "x")


def test_load_accepts_float_literals_loadtxt_rejects():
    # the rule is float()'s: underscores, non-ASCII digits, surrounding
    # whitespace such as a trailing CR
    model, raw = _load_raw(_vec_bytes("2 2", "a 1_0 ١", "b 2.5\r 3\r"), "odd")
    assert raw.tolist() == [[10.0, 1.0], [2.5, 3.0]]
    _assert_same_bits(model.unit_matrix(), _normalize_matrix(raw))


def test_load_rejects_separators_float_rejects():
    # numpy strips U+001C..U+001F around a number; float() does not
    with pytest.raises(VecFormatError, match="line 3: unparseable"):
        load_vec(_vec_bytes("2 1", "a 1", "b 2\x1c"), "x")


@pytest.mark.parametrize("lines, message", [
    (("4 2", "a 1 2", "b 1 x", "c 3 4", "d 5"), "line 3: unparseable vector component"),
    (("3 2", "a nan 2", "b 1 2", "c 1 x"), "line 2: non-finite vector component"),
])
def test_load_first_failing_line_wins_within_a_chunk(lines, message):
    with pytest.raises(VecFormatError) as excinfo:
        load_vec(_vec_bytes(*lines), "order")
    assert str(excinfo.value) == message


def test_load_errors_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(vectors, "_CHUNK", 2)
    data = _vec_bytes("5 1", "a 1", "b 2", "c 3", "d inf", "a 5")
    with pytest.raises(VecFormatError) as excinfo:
        load_vec(data, "chunks")
    assert str(excinfo.value) == "line 5: non-finite vector component"
    with pytest.raises(VecFormatError) as excinfo:
        load_vec(_vec_bytes("5 1", "a 1", "b 2", "a 3", "c 4", "d 5"), "chunks")
    assert str(excinfo.value) == "line 4: duplicate token 'a'"
    # loadtxt rejects "1_0", so the first chunk is read line by line; the
    # loadtxt path took none of its tokens, so "a" and "b" are taken once
    # and the repeat of "a" is found in the next chunk
    with pytest.raises(VecFormatError) as excinfo:
        load_vec(_vec_bytes("4 1", "a 1_0", "b 2", "c 3", "a 4"), "chunks")
    assert str(excinfo.value) == "line 5: duplicate token 'a'"


_TOKENS = st.sampled_from(["a", "b", "c", "ä", "wort", "日本", "𝔘x"])
# 5e-324, 1e-170, 1e200 and -1e300 give rows whose squared norm is
# subnormal or overflows, which are normalized by the rescale path
_GOOD = ["0", "-0", "1", "-1.5e-2", ".5", "+3", "1_0", "١", "2.", "1e-400",
         "0.30000000000000004", "12345678901234567890", "7e30", "5e-324",
         "1e-170", "1e200", "-1e300"]
_BAD = ["nan", "inf", "1e400", "x", "", "1__0", "0x1", "1\x1c", "\r", "1\r2"]
# a stray continuation byte, a lone lead byte, a truncated character, an
# overlong form and an encoded surrogate
_BAD_UTF8 = [b"\x80", b"\xff", "日".encode()[:2], b"\xc0\xaf", b"\xed\xa0\x80"]


@st.composite
def _vec_files(draw):
    dim = draw(st.integers(1, 3))
    body = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["good"] * 6 + ["bad", "count", "empty"]))
        n = dim if kind != "count" else draw(st.sampled_from([dim - 1, dim + 1]))
        comps = [draw(st.sampled_from(_GOOD)) for _ in range(n)]
        if kind == "bad" and comps:
            comps[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_BAD))
        if comps and draw(st.booleans()):
            comps[-1] += "\r"
        token = "" if kind == "empty" else draw(_TOKENS)
        body.append(" ".join([token] + comps))
    count = len(body) + draw(st.sampled_from([0] * 8 + [-1, 1]))
    data = _vec_bytes(f"{max(count, 0)} {dim}", *body)
    damage = draw(st.sampled_from(["none"] * 6 + ["insert", "tail", "cut"]))
    if damage == "insert":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_BAD_UTF8)) + data[at:]
    elif damage == "tail":
        data += draw(st.sampled_from(["日".encode()[:1], "日".encode()[:2], "𝔘".encode()[:3]]))
    elif damage == "cut":
        # may end the file inside a multi-byte character or a line
        data = data[: draw(st.integers(0, len(data)))]
    return data


def _matches_per_component_oracle(data, chunk, block, line_by_line=False):
    # size hints of 1-64 bytes make groups of one line or of a few lines, so
    # group boundaries fall after any line and a bad byte in any group;
    # load_vocab runs the same checks as load_vec but keeps no rows
    def run(loader):
        try:
            return loader(data, "p")
        except VecFormatError as exc:
            return str(exc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vectors, "_CHUNK", chunk)
        mp.setattr(vectors, "_BLOCK", block)
        if line_by_line:
            mp.setattr(vectors, "_loadtxt_safe", lambda text: False)
        got = run(_load_raw)
        vocab = run(load_vocab)
    want = run(load_vec_oracle)
    if isinstance(want, str):
        assert got == want
        assert vocab == want
        return
    want, want_raw = want
    assert not isinstance(vocab, str), vocab
    assert (vocab.vocab, vocab.zero_rows, vocab.source_digest, vocab.dim) == (
        want.vocab, want.zero_rows, want.source_digest, want.dim
    )
    assert not isinstance(got, str), got
    got, raw = got
    assert got.vocab == want.vocab
    # the parsed components, then their unit rows normalized a chunk at a
    # time against the whole raw matrix normalized at once
    _assert_same_bits(raw, want_raw)
    _assert_same_bits(got.unit_matrix(), _normalize_matrix(want_raw))
    assert got.zero_rows == want.zero_rows
    assert got.source_digest == want.source_digest
    assert got.dim == want.dim


@settings(max_examples=600, deadline=None)
@given(data=_vec_files(), chunk=st.integers(1, 3), block=st.integers(1, 64))
def test_load_matches_per_component_oracle(data, chunk, block):
    _matches_per_component_oracle(data, chunk, block)


@settings(max_examples=600, deadline=None)
@given(data=_vec_files(), chunk=st.integers(1, 3), block=st.integers(1, 64))
def test_load_matches_per_component_oracle_line_by_line(data, chunk, block):
    # no chunk is offered to loadtxt: every one is read by float() alone
    _matches_per_component_oracle(data, chunk, block, line_by_line=True)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4])
def test_rescaled_rows_on_both_sides_of_a_chunk_boundary(monkeypatch, chunk):
    # rows whose squared norm is subnormal (first column) or overflows
    # (second) alternate, so every chunk size puts both kinds next to a
    # boundary; the loader normalizes each chunk as the whole matrix would be
    tiny = ["1e-170 -3e-170", "5e-324 0", "1e-200 1e-160"]
    huge = ["1e200 -1e300", "-1.7e308 1e308", "1e250 1"]
    rows = [row for pair in zip(tiny, huge) for row in pair] + ["3 4", "0 0"]
    data = _vec_bytes(f"{len(rows)} 2", *(f"w{i} {row}" for i, row in enumerate(rows)))
    monkeypatch.setattr(vectors, "_CHUNK", chunk)
    model, raw = _load_raw(data)
    _, want_raw = load_vec_oracle(data, "m")
    _assert_same_bits(raw, want_raw)
    unit = model.unit_matrix()
    _assert_same_bits(unit, _normalize_matrix(want_raw))
    assert unit[5].tolist() == [1.0, 0.0]  # "1e250 1": the rescaled 1e-250 is flushed
    assert model.zero_rows == {len(rows) - 1}
    assert np.linalg.norm(unit[:-1], axis=1) == pytest.approx(np.ones(len(rows) - 1))


def test_utf8_error_names_its_position_in_the_file(monkeypatch):
    # with a 4-byte size hint the bad byte is in a later group of lines than
    # the multi-byte character, so its position counts the groups before it
    monkeypatch.setattr(vectors, "_BLOCK", 4)
    data = _vec_bytes("1 1", "日 1") + b"\xff\n"
    with pytest.raises(VecFormatError) as excinfo:
        load_vec(data, "x")
    assert str(excinfo.value) == (
        "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
    )


@pytest.mark.parametrize("loader", [load_vec, load_vocab])
def test_file_objects_load_as_their_path_does(tmp_path, monkeypatch, loader):
    # a 64-byte size hint reads the file in several groups of lines
    monkeypatch.setattr(vectors, "_BLOCK", 64)
    rows = np.random.default_rng(5).standard_normal((40, 3))
    rows[::7] = 0.0
    path = tmp_path / "m.vec"
    save_vec([f"wört{i}" for i in range(40)], rows, path)
    data = path.read_bytes()
    assert len(data) < 4096  # the pipe holds the whole file before it is read
    want = loader(path, "m")
    assert want.zero_rows
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    with open(path, "rb") as fh, open(r, "rb") as pipe:
        for source in (fh, pipe):
            got = loader(source, "m")
            assert not source.closed
            assert (got.vocab, got.zero_rows, got.source_digest) == (
                want.vocab, want.zero_rows, want.source_digest
            )
            if loader is load_vec:
                _assert_same_bits(got.unit_matrix(), want.unit_matrix())


def test_load_peaks_at_the_model_plus_a_few_blocks(tmp_path):
    rng = np.random.default_rng(3)
    n, dim = 50_000, 10
    path = tmp_path / "m.vec"
    save_vec([f"w{i:05d}" for i in range(n)], rng.standard_normal((n, dim)), path)

    def traced(loader):
        """The result, the memory it keeps and the peak above what was held before."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = loader(path, "m")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held - before, peak - before

    model, held, peak = traced(load_vec)
    # ``held`` is what the model keeps: its unit rows, the vocabulary and
    # its index; reading the file whole would add its bytes, text and
    # lines, and normalizing it whole a second matrix
    assert peak - held < 3 * vectors._BLOCK
    # the unit rows a search reads are the rows the model already holds
    unit, grew, _ = traced(lambda path, name: model.unit_matrix())
    assert unit.shape == (n, dim)
    assert grew < unit.nbytes

    vocab, vocab_held, vocab_peak = traced(load_vocab)
    assert vocab.vocab == model.vocab
    # the vocabulary alone is less than the matrix (4 MB) ...
    assert vocab_held < unit.nbytes
    # ... and reading it costs at most what the model keeps besides its
    # matrix, plus three blocks.  The bound is not ``vocab_held`` plus three
    # blocks: the token set that finds duplicates lives while the file is
    # read and is about as large as the model's index, which load_vocab does
    # not keep.  Holding the matrix even briefly would break the bound.
    assert vocab_peak < held - unit.nbytes + 3 * vectors._BLOCK
