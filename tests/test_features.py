"""Text encoders, the EMB1 container, and the remote embedding client."""

import gc
import math
import os
import re
import struct
import urllib.request
import warnings

import numpy as np
import pytest
from conftest import reference_tfidf
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagforge.features import (
    EmbeddingFormatError,
    EncoderSpec,
    RemoteEmbeddingError,
    load_embedding_file,
    remote_embed,
    save_embedding_file,
    tfidf,
    tokenize,
)


def test_tokenize_lowercase_alnum_runs():
    assert tokenize("Hello, World! x2 foo_bar") == ["hello", "world", "x2", "foo", "bar"]


def test_vocab_document_frequency_order_with_lexicographic_ties():
    corpus = ["b a", "b a", "b c", "c z"]
    # df: b=3, a=2, c=2, z=1 -> ties a/c break lexicographically
    assert tfidf(corpus, 4)[1] == ["b", "a", "c", "z"]
    assert tfidf(corpus, 2)[1] == ["b", "a"]


def test_vocab_deterministic():
    corpus = ["red green blue", "green blue", "blue"]
    assert tfidf(corpus, 3)[1] == tfidf(corpus, 3)[1]


def test_tfidf_idf_unit_when_term_everywhere():
    # df=2, N=2 -> idf = ln(3/3) + 1 = 1; single-term rows normalize to 1
    matrix, vocab = tfidf(["a a", "a"], vocab_size=5)
    assert vocab == ["a"]
    assert np.allclose(matrix, [[1.0], [1.0]])


def test_tfidf_hand_computed_weights():
    matrix, vocab = tfidf(["a b", "a"], vocab_size=5)
    assert vocab == ["a", "b"]
    idf_a = math.log(3 / 3) + 1.0
    idf_b = math.log(3 / 2) + 1.0
    row0 = np.array([1.0 * idf_a, 1.0 * idf_b])
    row0 /= np.linalg.norm(row0)
    assert np.abs(matrix[0] - row0).max() < 1e-12
    assert np.allclose(matrix[1], [1.0, 0.0])


def test_tfidf_document_without_vocab_terms_is_zero_row():
    matrix, _ = tfidf(["common words here", "common words", "zzz qqq"], vocab_size=2)
    assert np.array_equal(matrix[2], np.zeros(2))


def test_tfidf_duplicate_documents_identical_rows():
    matrix, _ = tfidf(["x y z", "x y z", "x"], vocab_size=3)
    assert np.array_equal(matrix[0], matrix[1])


def test_tfidf_rows_unit_or_zero_norm():
    corpus = [f"w{i} w{i % 3} shared" for i in range(20)] + ["@@@@"]
    matrix, _ = tfidf(corpus, vocab_size=6)
    norms = np.linalg.norm(matrix, axis=1)
    assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))


def test_tfidf_empty_corpus():
    with pytest.raises(ValueError):
        tfidf([], vocab_size=3)


_WORDS = ["a", "b", "B", "ab", "Ab", "zeta", "x1", "42", "a-b", "b!", "...", "foo_bar", ""]
_DOCS = st.one_of(
    st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join),
    st.text(alphabet="abAB01 ,.!-_", max_size=12),
)


@given(corpus=st.lists(_DOCS, min_size=1, max_size=8), vocab_size=st.integers(1, 20))
@example(corpus=["", ""], vocab_size=1)
@example(corpus=["b a", "B"], vocab_size=1)  # df tie between a and b
@settings(max_examples=150, deadline=None)
def test_tfidf_and_vocab_equal_the_dense_reference(corpus, vocab_size):
    matrix, vocab = tfidf(corpus, vocab_size)
    expected, expected_vocab = reference_tfidf(corpus, vocab_size)
    assert vocab == expected_vocab
    assert matrix.shape == expected.shape and matrix.dtype == expected.dtype
    assert np.array_equal(matrix, expected)


def test_tfidf_equals_the_reference_over_many_row_blocks():
    # 300 columns of float64 fill a 256 KiB norm block at 109 rows, so 546
    # documents end in a one-row block
    rng = np.random.default_rng(7)
    words = [f"w{k}" for k in range(2000)]
    weights = 1.0 / np.arange(1, len(words) + 1)
    corpus = [
        " ".join(rng.choice(words, size=rng.integers(0, 40), p=weights / weights.sum()))
        for _ in range(546)
    ]
    matrix, vocab = tfidf(corpus, 300)
    expected, expected_vocab = reference_tfidf(corpus, 300)
    assert vocab == expected_vocab and len(vocab) == 300
    assert np.array_equal(matrix.view(np.uint64), expected.view(np.uint64))


# ---------------------------------------------------------------------------
# EMB1 container


def test_emb1_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    matrix = (rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-20, 20, size=(7, 5))).astype(
        np.float32
    )
    path = str(tmp_path / "m.emb")
    save_embedding_file(path, matrix)
    loaded = load_embedding_file(path)
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded.view(np.uint32), matrix.view(np.uint32))  # bit compare


@given(
    n=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_emb1_roundtrip_property(tmp_path_factory, n, d, seed):
    matrix = np.random.default_rng(seed).normal(size=(n, d)).astype(np.float32)
    path = str(tmp_path_factory.mktemp("emb") / "m.emb")
    save_embedding_file(path, matrix)
    assert np.array_equal(load_embedding_file(path), matrix)


def test_emb1_hand_built_bytes_decode(tmp_path):
    values = [1.5, -2.0, 0.25, 8.0, -0.5, 3.0]
    blob = b"EMB1" + struct.pack("<QQ", 3, 2) + struct.pack("<6f", *values)
    path = tmp_path / "hand.emb"
    path.write_bytes(blob)
    loaded = load_embedding_file(str(path))
    assert loaded.tolist() == [[1.5, -2.0], [0.25, 8.0], [-0.5, 3.0]]


def test_emb1_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"XXXX" + struct.pack("<QQ", 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(EmbeddingFormatError, match="magic"):
        load_embedding_file(str(path))


def test_emb1_truncated_payload(tmp_path):
    path = tmp_path / "short.emb"
    path.write_bytes(b"EMB1" + struct.pack("<QQ", 2, 2) + struct.pack("<f", 1.0))
    with pytest.raises(EmbeddingFormatError, match="bytes"):
        load_embedding_file(str(path))


def test_emb1_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.emb"
    path.write_bytes(b"EMB1" + struct.pack("<QQ", 1, 1) + struct.pack("<f", float("inf")))
    with pytest.raises(EmbeddingFormatError, match="finite"):
        load_embedding_file(str(path))
    with pytest.raises(ValueError):
        save_embedding_file(str(tmp_path / "nan.emb"), np.array([[float("nan")]]))


@pytest.mark.parametrize(
    "blob",
    [b"EMB1" + struct.pack("<QQ", 1, 2) + struct.pack("<2f", 1.0, 2.0) + b"\x00",
     b"EMB1" + struct.pack("<QQ", 3, 2)],
    ids=["trailing_bytes", "header_only"],
)
def test_emb1_size_mismatch_names_the_path(tmp_path, blob):
    path = tmp_path / "odd.emb"
    path.write_bytes(blob)
    with pytest.raises(EmbeddingFormatError, match=re.escape(str(path)) + ".*bytes"):
        load_embedding_file(str(path))


def test_emb1_load_returns_an_owned_writable_c_contiguous_array(tmp_path):
    path = str(tmp_path / "m.emb")
    save_embedding_file(path, np.arange(12.0).reshape(3, 4))
    loaded = load_embedding_file(path)
    assert loaded.dtype == np.float32 and loaded.shape == (3, 4)
    assert loaded.flags.c_contiguous and loaded.flags.writeable and loaded.flags.owndata


def test_emb1_roundtrips_signed_zero_subnormals_and_max_bit_exact(tmp_path):
    info = np.finfo(np.float32)
    values = np.array(
        [[-0.0, 0.0, info.smallest_subnormal, -info.smallest_subnormal],
         [info.smallest_normal / 2, info.max, -info.max, info.smallest_normal]],
        dtype=np.float32,
    )
    path = tmp_path / "edge.emb"
    save_embedding_file(str(path), values)
    assert path.read_bytes() == b"EMB1" + struct.pack("<QQ", 2, 4) + values.tobytes()
    assert np.array_equal(load_embedding_file(str(path)).view(np.uint32), values.view(np.uint32))


def test_emb1_keeps_previous_file_when_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "m.emb"
    save_embedding_file(str(path), np.ones((2, 3)))
    previous = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_embedding_file(str(path), np.zeros((4, 3)))
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["m.emb"]


# ---------------------------------------------------------------------------
# encoder specs


def test_encoder_spec_validation(tmp_path, monkeypatch):
    EncoderSpec(name="t", kind="tfidf", vocab_size=10)
    with pytest.raises(ValueError):
        EncoderSpec(name="t", kind="tfidf")
    with pytest.raises(ValueError):
        EncoderSpec(name="f", kind="file")
    with pytest.raises(ValueError):
        EncoderSpec(name="x", kind="bert")
    monkeypatch.delenv("TAGFORGE_CACHE", raising=False)
    with pytest.raises(ValueError, match="cache"):
        EncoderSpec(name="r", kind="remote", endpoint="http://x", model="m")
    monkeypatch.setenv("TAGFORGE_CACHE", str(tmp_path / "cache"))
    spec = EncoderSpec(name="r", kind="remote", endpoint="http://x", model="m")
    assert spec.resolved_cache_dir() == str(tmp_path / "cache")


# ---------------------------------------------------------------------------
# remote client (against the in-process mock service)


def _remote_spec(server, tmp_path, **overrides):
    kwargs = dict(
        name="svc",
        kind="remote",
        endpoint=server.url,
        model="test-model",
        batch_size=2,
        cache_dir=str(tmp_path / "cache"),
        retry_base_delay=0.0,
    )
    kwargs.update(overrides)
    return EncoderSpec(**kwargs)


def test_remote_embed_matches_fixture_vectors(embed_server, tmp_path):
    texts = ["alpha", "beta", "gamma", "delta", "epsilon"]
    spec = _remote_spec(embed_server, tmp_path)
    matrix = remote_embed(spec, texts)
    expected = np.array([embed_server.expected_vector(t) for t in texts], dtype=np.float32)
    assert matrix.shape == (5, 4)
    assert np.array_equal(matrix, expected)
    # ceil(5 / batch_size=2) = 3 requests, in input order
    assert [req["texts"] for req in embed_server.requests] == [
        ["alpha", "beta"], ["gamma", "delta"], ["epsilon"],
    ]
    assert all(req["model"] == "test-model" for req in embed_server.requests)


def test_remote_embed_warm_cache_issues_no_requests(embed_server, tmp_path):
    texts = ["one", "two", "three"]
    spec = _remote_spec(embed_server, tmp_path)
    first = remote_embed(spec, texts)
    n_requests = len(embed_server.requests)
    second = remote_embed(spec, texts)
    assert len(embed_server.requests) == n_requests
    assert np.array_equal(first, second)


def test_remote_embed_partial_cache_fetches_only_misses(embed_server, tmp_path):
    spec = _remote_spec(embed_server, tmp_path, batch_size=8)
    remote_embed(spec, ["a", "b"])
    embed_server.requests.clear()
    matrix = remote_embed(spec, ["a", "b", "c"])
    assert [req["texts"] for req in embed_server.requests] == [["c"]]
    assert matrix.shape == (3, 4)


def test_remote_embed_retries_then_succeeds(embed_server, tmp_path):
    embed_server.set_failures(2)
    spec = _remote_spec(embed_server, tmp_path, batch_size=8)
    matrix = remote_embed(spec, ["x", "y"])
    assert matrix.shape == (2, 4)
    assert len(embed_server.requests) == 3  # two failures + one success


def test_remote_embed_fails_after_three_attempts(embed_server, tmp_path):
    embed_server.set_failures(5)
    spec = _remote_spec(embed_server, tmp_path, batch_size=8)
    with pytest.raises(RemoteEmbeddingError, match="3 attempts"):
        remote_embed(spec, ["x"])
    assert len(embed_server.requests) == 3


def test_remote_embed_closes_failed_responses(embed_server, tmp_path):
    # an unclosed HTTP error leaves its socket to the garbage collector,
    # which reports it as a ResourceWarning
    embed_server.set_failures(5)
    spec = _remote_spec(embed_server, tmp_path, batch_size=8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            remote_embed(spec, ["x"])
        except RemoteEmbeddingError:
            pass
        else:
            pytest.fail("a failing endpoint must raise")
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("max_in_flight, most", [(1, 3), (2, 6)])
def test_remote_embed_starts_no_batch_after_one_fails(
    embed_server, tmp_path, max_in_flight, most
):
    # six single-text batches: the first failure (3 attempts) stops the rest,
    # and only batches already in flight make their own attempts
    embed_server.set_failures(100)
    spec = _remote_spec(embed_server, tmp_path, batch_size=1, max_in_flight=max_in_flight)
    with pytest.raises(RemoteEmbeddingError, match="3 attempts"):
        remote_embed(spec, [f"text-{i}" for i in range(6)])
    assert 3 <= len(embed_server.requests) <= most


def test_remote_embed_dead_endpoint_names_it(tmp_path):
    spec = EncoderSpec(
        name="svc", kind="remote", endpoint="http://127.0.0.1:9", model="m",
        cache_dir=str(tmp_path / "cache"), retry_base_delay=0.0,
    )
    with pytest.raises(RemoteEmbeddingError, match="127.0.0.1:9"):
        remote_embed(spec, ["text"])


def test_remote_embed_passes_the_spec_timeout_to_urlopen(embed_server, tmp_path, monkeypatch):
    timeouts = []
    urlopen = urllib.request.urlopen

    def recording_urlopen(request, timeout):
        timeouts.append(timeout)
        return urlopen(request, timeout=timeout)

    monkeypatch.setattr(urllib.request, "urlopen", recording_urlopen)
    remote_embed(_remote_spec(embed_server, tmp_path, timeout=2.5), ["a", "b", "c"])
    assert timeouts == [2.5, 2.5]
    remote_embed(_remote_spec(embed_server, tmp_path, batch_size=8), ["d"])
    assert timeouts == [2.5, 2.5, 30.0]


def test_remote_embed_rejects_cross_batch_dimension_mismatch(embed_server, tmp_path):
    embed_server.set_dim_overrides([4, 7])
    spec = _remote_spec(embed_server, tmp_path, batch_size=1)
    with pytest.raises(RemoteEmbeddingError, match="dimension"):
        remote_embed(spec, ["a", "b"])


@pytest.mark.parametrize(
    "bad",
    ["abc", [[1.0, 2.0], [3.0]], {"x": 1.0}, [[1.0, 2.0, 3.0, 4.0]], ["1.5", "2", "3", "4"],
     [True, False, True, False], [1.0, math.inf, 1.0, 1.0]],
    ids=["string", "ragged", "dict", "nested", "numeric-strings", "booleans", "non-finite"],
)
def test_remote_embed_rejects_malformed_vector_naming_endpoint_and_index(
    embed_server, tmp_path, bad
):
    embed_server.httpd.state["vector_fn"] = lambda text, dim: bad if text == "b" else [1.0] * dim
    spec = _remote_spec(embed_server, tmp_path, batch_size=3)
    with pytest.raises(RemoteEmbeddingError, match=rf"{embed_server.url} .* index 1\b"):
        remote_embed(spec, ["a", "b", "c"])
    assert len(embed_server.requests) == 1  # a malformed payload is not retried
    assert not os.listdir(spec.resolved_cache_dir())


def test_remote_embed_rejects_mixed_widths_within_one_batch(embed_server, tmp_path):
    embed_server.httpd.state["vector_fn"] = lambda text, dim: [1.0] * (dim + (text == "b"))
    spec = _remote_spec(embed_server, tmp_path, batch_size=3)
    with pytest.raises(RemoteEmbeddingError,
                       match=rf"{embed_server.url} returned mixed dimensions \[4, 5\]"):
        remote_embed(spec, ["a", "b", "c"])
    assert len(embed_server.requests) == 1
    assert not os.listdir(spec.resolved_cache_dir())


def test_remote_embed_rejects_a_cache_entry_of_two_rows(embed_server, tmp_path):
    spec = _remote_spec(embed_server, tmp_path)
    remote_embed(spec, ["hello"])
    (entry,) = os.listdir(spec.resolved_cache_dir())
    path = os.path.join(spec.resolved_cache_dir(), entry)
    save_embedding_file(path, np.ones((2, 4), dtype=np.float32))
    with pytest.raises(EmbeddingFormatError, match=re.escape(f"{path} is not a single row")):
        remote_embed(spec, ["hello"])
    assert len(embed_server.requests) == 1  # a cached entry is read, not fetched again


def test_remote_embed_cache_entries_are_single_row_emb1(embed_server, tmp_path):
    spec = _remote_spec(embed_server, tmp_path)
    remote_embed(spec, ["hello"])
    cache_dir = spec.resolved_cache_dir()
    entries = os.listdir(cache_dir)
    assert len(entries) == 1
    assert entries[0].endswith(".emb")
    row = load_embedding_file(os.path.join(cache_dir, entries[0]))
    assert row.shape == (1, 4)


def test_remote_embed_concurrent_batches_match_serial(embed_server, tmp_path):
    texts = [f"text-{i}" for i in range(7)]
    serial = remote_embed(_remote_spec(embed_server, tmp_path, cache_dir=str(tmp_path / "c1")), texts)
    concurrent = remote_embed(
        _remote_spec(embed_server, tmp_path, cache_dir=str(tmp_path / "c2"), max_in_flight=3),
        texts,
    )
    assert np.array_equal(serial, concurrent)


def test_remote_embed_equals_cacheless_oracle_replay(embed_server, tmp_path):
    # interleaved call pattern: cached rows must equal a direct no-cache fetch
    spec = _remote_spec(embed_server, tmp_path)
    remote_embed(spec, ["p", "q"])
    remote_embed(spec, ["q", "r", "p"])
    final = remote_embed(spec, ["r", "p", "q", "s"])
    oracle = np.array(
        [embed_server.expected_vector(t) for t in ["r", "p", "q", "s"]], dtype=np.float32
    )
    assert np.array_equal(final, oracle)


def test_remote_embed_duplicate_texts_share_cache_entry(embed_server, tmp_path):
    spec = _remote_spec(embed_server, tmp_path, batch_size=8)
    matrix = remote_embed(spec, ["same", "same", "other"])
    assert np.array_equal(matrix[0], matrix[1])
    assert [req["texts"] for req in embed_server.requests] == [["same", "other"]]
