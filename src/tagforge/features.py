"""Node feature providers: local TF-IDF, embedding files, remote services.

EMB1 file format (bit-exact container for embedding matrices): magic bytes
``EMB1``, little-endian u64 row count n, u64 column count d, then n*d
little-endian IEEE-754 float32 values, row-major.

Remote protocol: ``POST <endpoint>/embed`` with JSON body
``{"model": str, "texts": [str]}``; a 200 response carries
``{"embeddings": [[float]]}`` with one vector per input text, in order.
Any non-200 status or transport error counts as a failure; failed batches
are retried with exponential backoff (3 attempts total). A vector that is
not a flat list of finite numbers fails at once, naming its index. Batches
of cache misses start in input order on one pool of ``max_in_flight``
threads; after a batch fails, or the caller is interrupted, no further
batch starts, and batches already in flight finish and are cached. Every
fetched vector is cached as ``<cache_dir>/<sha256 hex>.emb`` (EMB1, n=1), keyed by
(model id, text), and warm-cache calls issue no requests at all. Returned
rows are always read back from the cache, so repeat calls are bit-identical.
"""

import hashlib
import json
import os
import re
import struct
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

# Each encoder kind's own ``EncoderSpec`` fields, besides name and kind.
ENCODER_KINDS = {"tfidf": ("vocab_size",), "file": ("path",),
                 "remote": ("endpoint", "model", "batch_size", "cache_dir", "max_in_flight",
                            "retry_base_delay", "timeout")}
CACHE_ENV_VAR = "TAGFORGE_CACHE"

_EMB1_MAGIC = b"EMB1"
_TOKEN_RE = re.compile(r"[a-z0-9]+")
# tfidf takes row norms over dense row blocks of about this size
_NORM_BLOCK_BYTES = 1 << 18


class EmbeddingFormatError(ValueError):
    """An EMB1 file is malformed."""


class RemoteEmbeddingError(RuntimeError):
    """The remote embedding service failed or returned malformed data."""


@dataclass(frozen=True)
class EncoderSpec:
    """One feature source. Exactly the fields for its kind are required:

    * tfidf: ``vocab_size``
    * file: ``path`` to an EMB1 file
    * remote: ``endpoint``, ``model``; ``cache_dir`` defaults to
      $TAGFORGE_CACHE; ``batch_size``, ``max_in_flight``,
      ``retry_base_delay`` (seconds before the first retry, >= 0) and
      ``timeout`` (seconds per request, > 0) tune the client.
    """

    name: str
    kind: str
    vocab_size: int | None = None
    path: str | None = None
    endpoint: str | None = None
    model: str | None = None
    batch_size: int = 16
    cache_dir: str | None = None
    max_in_flight: int = 1
    retry_base_delay: float = 0.5
    timeout: float = 30.0

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"encoder kind must be one of {[*ENCODER_KINDS]}, got {self.kind!r}")
        if not self.name:
            raise ValueError("encoder needs a name")
        if not 0 < self.timeout < float("inf"):
            raise ValueError(f"timeout must be a positive number of seconds, got {self.timeout!r}")
        if not 0 <= self.retry_base_delay < float("inf"):
            raise ValueError(f"retry_base_delay must be >= 0 seconds, "
                             f"got {self.retry_base_delay!r}")
        if self.kind == "tfidf" and (self.vocab_size is None or self.vocab_size < 1):
            raise ValueError(f"tfidf encoder {self.name!r} requires a positive vocab_size")
        if self.kind == "file" and not self.path:
            raise ValueError(f"file encoder {self.name!r} requires a path")
        if self.kind == "remote":
            if not self.endpoint or not self.model:
                raise ValueError(f"remote encoder {self.name!r} requires endpoint and model")
            if self.resolved_cache_dir() is None:
                raise ValueError(
                    f"remote encoder {self.name!r} requires cache_dir or ${CACHE_ENV_VAR}"
                )
            if self.batch_size < 1 or self.max_in_flight < 1:
                raise ValueError("batch_size and max_in_flight must be >= 1")

    def resolved_cache_dir(self) -> str | None:
        return self.cache_dir or os.environ.get(CACHE_ENV_VAR)


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def _term_pass(corpus: list[str], vocab_size: int):
    """One tokenizing pass: (vocab, rows, cols, counts, df) of the nonzero
    (document, vocab column) counts, found by sorting integer (document,
    term) keys. Terms are interned as they are read."""
    if not corpus:
        raise ValueError("empty corpus")
    index: dict[str, int] = {}
    doc_terms = [[index.setdefault(t, len(index)) for t in tokenize(doc)] for doc in corpus]
    terms = list(index)
    docs = np.repeat(np.arange(len(corpus)), [len(ids) for ids in doc_terms])
    flat = np.fromiter(chain.from_iterable(doc_terms), np.int64, docs.size)
    keys, counts = np.unique(docs * len(terms) + flat, return_counts=True)
    rows, term_ids = np.divmod(keys, max(len(terms), 1))
    df = np.bincount(term_ids, minlength=len(terms))
    by_name = np.array(sorted(range(len(terms)), key=terms.__getitem__), dtype=np.int64)
    chosen = by_name[np.argsort(-df[by_name], kind="stable")][:vocab_size]
    column = np.full(len(terms), -1)
    column[chosen] = np.arange(chosen.size)
    cols = column[term_ids]
    kept = cols >= 0
    return [terms[t] for t in chosen], rows[kept], cols[kept], counts[kept], df[chosen]


def tfidf(corpus: list[str], vocab_size: int) -> tuple[np.ndarray, list[str]]:
    """TF-IDF features over the vocab, the ``vocab_size`` terms of highest
    document frequency with ties broken lexicographically: tf = raw count,
    idf = ln((1+N)/(1+df)) + 1, rows L2-normalized (all-zero rows stay zero).
    Returns (dense float64 matrix, vocab).

    One tokenizing pass finds the vocab and every nonzero count; the dense
    matrix is written only at those cells. Row norms are ``np.linalg.norm``
    over dense rows, a block of rows at a time, so every value is
    bit-identical to normalizing the whole dense count matrix at once.
    """
    vocab, rows, cols, counts, df = _term_pass(corpus, vocab_size)
    weights = counts * (np.log((1.0 + len(corpus)) / (1.0 + df)) + 1.0)[cols]
    matrix = np.zeros((len(corpus), len(vocab)))
    matrix[rows, cols] = weights
    norms = np.empty(len(corpus))
    step = max(1, _NORM_BLOCK_BYTES // max(matrix.itemsize * len(vocab), 1))
    for start in range(0, len(corpus), step):
        norms[start : start + step] = np.linalg.norm(matrix[start : start + step], axis=1)
    matrix[rows, cols] = weights / norms[rows]
    return matrix, vocab


def save_embedding_file(path: str, matrix: np.ndarray) -> None:
    """Write an EMB1 file (float32) atomically, from the array's own buffer."""
    m = np.ascontiguousarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("embedding matrix has non-finite values")
    _atomic_write(path, _EMB1_MAGIC + struct.pack("<QQ", *m.shape), m)


def load_embedding_file(path: str) -> np.ndarray:
    """Read an EMB1 file back as float32, bit-exact: the size is checked
    against the header, then the payload is read into one new array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(20)
        if len(header) < 20 or header[:4] != _EMB1_MAGIC:
            raise EmbeddingFormatError(f"{path}: not an EMB1 file (bad magic)")
        n, d = struct.unpack("<QQ", header[4:])
        expected = 20 + n * d * 4
        if size != expected:
            raise EmbeddingFormatError(
                f"{path}: payload is {size} bytes, expected {expected} for {n}x{d}"
            )
        matrix = np.empty((n, d), dtype="<f4")
        if fh.readinto(matrix) != matrix.nbytes:
            raise EmbeddingFormatError(f"{path}: file shrank while being read")
    if not np.isfinite(matrix).all():
        raise EmbeddingFormatError(f"{path}: non-finite values")
    return matrix


def _atomic_write(path: str, *chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` via a temporary file and a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # created as open() would (0o666 less the umask), not 0o600 as by mkstemp
    tmp = os.path.join(directory, f"{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_key(model: str, text: str) -> str:
    digest = hashlib.sha256()
    digest.update(model.encode())
    digest.update(b"\x00")
    digest.update(text.encode())
    return digest.hexdigest()


def _post_embed(endpoint: str, model: str, texts: list[str], timeout: float):
    url = endpoint.rstrip("/") + "/embed"
    body = json.dumps({"model": model, "texts": texts}).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            if response.status != 200:
                raise RemoteEmbeddingError(f"{url}: HTTP {response.status}")
            payload = json.loads(response.read())
    except urllib.error.HTTPError as exc:
        exc.close()  # the error holds the response and its socket
        raise RemoteEmbeddingError(f"{url}: {exc}") from exc
    except (urllib.error.URLError, OSError, json.JSONDecodeError, ValueError) as exc:
        raise RemoteEmbeddingError(f"{url}: {exc}") from exc
    if not isinstance(payload, dict) or "embeddings" not in payload:
        raise RemoteEmbeddingError(f"{url}: response missing 'embeddings'")
    return payload["embeddings"]


def _fetch_batch(spec: EncoderSpec, texts: list[str]) -> list[np.ndarray]:
    for attempt in range(3):
        try:
            vectors = _post_embed(spec.endpoint, spec.model, texts, spec.timeout)
            break
        except RemoteEmbeddingError as exc:
            if attempt == 2:
                raise RemoteEmbeddingError(
                    f"embedding endpoint {spec.endpoint} failed after 3 attempts: {exc}"
                ) from exc
            time.sleep(spec.retry_base_delay * 2**attempt)
    if not isinstance(vectors, list) or len(vectors) != len(texts):
        raise RemoteEmbeddingError(
            f"endpoint {spec.endpoint} returned {len(vectors) if isinstance(vectors, list) else '?'}"
            f" vectors for {len(texts)} texts"
        )
    rows = []
    for index, vec in enumerate(vectors):
        if not (isinstance(vec, list) and set(map(type, vec)) <= {int, float}):  # not bool
            raise RemoteEmbeddingError(f"endpoint {spec.endpoint} returned a malformed vector"
                                       f" at index {index}: expected a flat list of numbers")
        row = np.asarray(vec, dtype=np.float32)
        if not np.isfinite(row).all():
            raise RemoteEmbeddingError(
                f"endpoint {spec.endpoint} returned non-finite values at index {index}")
        rows.append(row.reshape(1, -1))
    widths = {row.shape[1] for row in rows}
    if len(widths) > 1:
        raise RemoteEmbeddingError(
            f"endpoint {spec.endpoint} returned mixed dimensions {sorted(widths)}"
        )
    return rows


def remote_embed(spec: EncoderSpec, texts: list[str]) -> np.ndarray:
    """Embed ``texts`` via the remote service, going through the cache.

    Only cache misses generate requests, in batches run as the module
    docstring says; the output rows follow the input order.
    """
    if spec.kind != "remote":
        raise ValueError(f"remote_embed needs a remote encoder, got kind {spec.kind!r}")
    cache_dir = spec.resolved_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    paths = [os.path.join(cache_dir, _cache_key(spec.model, t) + ".emb") for t in texts]

    first: dict[str, int] = {}  # each distinct entry, at its first text
    for i, path in enumerate(paths):
        first.setdefault(path, i)
    missing = [i for path, i in first.items() if not os.path.exists(path)]

    stop = threading.Event()

    def fetch_and_store(batch: list[int]) -> None:
        if stop.is_set():
            return
        try:
            rows = _fetch_batch(spec, [texts[i] for i in batch])
            for i, row in zip(batch, rows):
                save_embedding_file(paths[i], row)
        except BaseException:
            stop.set()  # before this worker can take the next batch
            raise

    with ThreadPoolExecutor(max_workers=spec.max_in_flight) as pool:
        futures = [pool.submit(fetch_and_store, missing[j : j + spec.batch_size])
                   for j in range(0, len(missing), spec.batch_size)]
        try:
            for future in futures:
                future.result()
        finally:
            stop.set()

    rows = []
    for path in paths:
        rows.append(load_embedding_file(path))
        if rows[-1].shape[0] != 1:
            raise EmbeddingFormatError(f"cache entry {path} is not a single row")
    widths = {row.shape[1] for row in rows}
    if len(widths) > 1:
        raise RemoteEmbeddingError(f"cache entries disagree on dimension: {sorted(widths)}")
    return np.concatenate(rows, axis=0) if rows else np.zeros((0, 0), dtype=np.float32)
