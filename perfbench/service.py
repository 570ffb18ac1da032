"""In-process loopback embedding service speaking tagforge's remote protocol.

``POST /embed`` with ``{"model": str, "texts": [str]}`` returns
``{"embeddings": [[float]]}``. Each text embeds as the L2-normalised sum of
fixed per-token Gaussian vectors (a hashed random projection of the bag of
words), so the vectors keep the documents' topic signal. One server thread
handles one request at a time.
"""

import json
import threading
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

from inputs import VOCAB

DIM = 32
_TOKEN_VECTORS = {}


def _token_vector(token: str) -> np.ndarray:
    vec = _TOKEN_VECTORS.get(token)
    if vec is None:
        vec = np.random.default_rng(zlib.crc32(token.encode())).standard_normal(DIM)
        _TOKEN_VECTORS[token] = vec
    return vec


def embed(text: str) -> list[float]:
    tokens = text.split()
    total = np.sum([_token_vector(t) for t in tokens], axis=0) if tokens else np.ones(DIM)
    return (total / np.linalg.norm(total)).tolist()


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        if self.path != "/embed":
            self.send_error(404)
            return
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = json.dumps({"embeddings": [embed(t) for t in payload["texts"]]}).encode()
        self.server.requests += 1
        self.server.texts += len(payload["texts"])
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class EmbedService:
    """Context manager: serves on an ephemeral 127.0.0.1 port, joins on exit."""

    def __enter__(self):
        for token in VOCAB:  # precompute, so request latency is steady from the first call
            _token_vector(token)
        self.server = HTTPServer(("127.0.0.1", 0), _Handler)
        self.server.requests = 0
        self.server.texts = 0
        self.endpoint = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        return self

    @property
    def requests(self) -> int:
        return self.server.requests

    @property
    def texts(self) -> int:
        return self.server.texts

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        if self.thread.is_alive():
            raise RuntimeError("embedding service thread did not stop")
