"""Spans recorded from outside tagforge, by wrapping the names its callers look up.

Python resolves a module-level name in the caller's module at call time, so a
function bound with ``from .graph import segment_sum`` must be wrapped in the
importing module as well as in ``graph``. Every wrapper is undone by
``Patches.restore``.

A span is ``[name, start, end, parent, run, amount]``: ``parent`` indexes the
enclosing span (-1 at the root), ``run`` is the training run it belongs to
(0 outside ``train``), and ``amount`` is a count the layer reports (bytes for
the segment kernels, uniform draws for the RNG). Spans nest strictly, because
every traced call happens on the main thread.
"""

import contextlib
import importlib
import time

import numpy as np

ARCHS = ("gcn", "graph_transformer", "mlp")


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Spans in memory, plus the training run and arch each one belongs to."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self.run_arch = {}
        self._stack = []
        self._arch = None
        self._l0_input = None

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def traced(self, fn, name, backward=None, amount=None):
        """``fn`` recorded as span ``name`` (a string or ``name(args)``).

        With ``backward``, ``fn`` returns ``(out, backward_fn)`` and the
        closure is recorded too, as span ``backward`` (string or callable).
        ``amount(args, result)`` sets the span's count.
        """

        def wrapper(*args, **kwargs):
            span = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if amount is not None:
                span[5] = amount(args, result)
            if backward is None:
                return result
            out, back = result
            back_name = backward if isinstance(backward, str) else backward(args)
            return out, self.traced(back, back_name)

        return wrapper

    def install(self, patches: Patches) -> None:
        """Wrap every traced layer of tagforge in place."""
        bench = importlib.import_module("tagforge.bench")
        cli = importlib.import_module("tagforge.cli")
        graph = importlib.import_module("tagforge.graph")
        models = importlib.import_module("tagforge.models")
        rng = importlib.import_module("tagforge.rng")
        # Not ``import tagforge.train``: that attribute is the re-exported function.
        train = importlib.import_module("tagforge.train")

        def wrap(owner, attr, name, **kw):
            patches.patch(owner, attr, lambda fn: self.traced(fn, name, **kw))

        def segment_bytes(args, out):
            return args[0].nbytes + args[1].nbytes + out.nbytes

        for owner in (graph, models):  # spmm uses graph's name, the GT layer models'
            wrap(owner, "segment_sum", "graph.segment_sum", amount=segment_bytes)
        wrap(models, "segment_max", "graph.segment_max", amount=segment_bytes)
        wrap(models, "spmm", "graph.spmm")

        def matmul_name(suffix):
            return lambda args: ("nn.matmul.l0_" if args[0] is self._l0_input
                                 else "nn.matmul.hidden_") + suffix

        wrap(models, "matmul", matmul_name("fwd"), backward=matmul_name("bwd"))
        wrap(models, "relu", "nn.relu", backward="nn.relu")
        wrap(models, "dropout", "nn.dropout")
        wrap(models, "dropout_backward", "nn.dropout")
        for layer in ("mlp_layer", "gcn_layer", "graph_transformer_layer"):
            wrap(models, layer, f"models.{layer}.fwd", backward=f"models.{layer}.bwd")

        def forward_backward(fn):
            inner = self.traced(fn, "models.forward_backward", backward="models.backward")

            def wrapper(model, dataset, *args, **kwargs):
                self._l0_input = dataset.features
                return inner(model, dataset, *args, **kwargs)

            return wrapper

        for owner in (models, train):  # evaluate reaches it through models.forward
            patches.patch(owner, "forward_backward", forward_backward)
        for attr in ("cross_entropy", "adam_step", "evaluate", "build_context"):
            module = "models" if attr == "build_context" else "train"
            wrap(train, attr, f"{module}.{attr}")
        wrap(rng.SplitMix64, "random", "rng.random",
             amount=lambda args, out: int(np.size(out)))
        wrap(models.Model, "snapshot", "models.snapshot")

        def run_cell(fn):
            inner = self.traced(fn, "bench.run_cell")

            def wrapper(*args, **kwargs):
                self._arch = args[4]
                return inner(*args, **kwargs)

            return wrapper

        def train_run(fn):
            inner = self.traced(fn, "train.train")

            def wrapper(*args, **kwargs):
                self.run = len(self.run_arch) + 1
                self.run_arch[self.run] = self._arch
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.run = 0

            return wrapper

        patches.patch(bench, "run_cell", run_cell)
        patches.patch(bench, "train", train_run)
        wrap(bench, "make_split", "data.split")
        wrap(bench, "init_parameters", "models.init_parameters")
        wrap(cli, "write_outputs", "bench.write_outputs")
        wrap(bench, "load_config", "bench.load_config")
        wrap(bench, "prepare", "bench.prepare")
        wrap(bench, "tfidf", "features.tfidf")
        wrap(bench, "remote_embed", "features.remote_embed")
        wrap(bench, "save_embedding_file", "features.save_embedding_file")
        wrap(bench, "load_embedding_file", "features.load_embedding_file")
        wrap(bench, "load_planetoid", "data.load_planetoid")

    @contextlib.contextmanager
    def span(self, name):
        """One span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)


def self_times(spans):
    """Duration and self time of each span: duration minus its children's."""
    dur = np.array([s[2] - s[1] for s in spans])
    own = dur.copy()
    parents = np.array([s[3] for s in spans], dtype=np.int64)
    child = parents >= 0
    np.subtract.at(own, parents[child], dur[child])
    return dur, own


def totals(spans, lo, hi, dur, own):
    """Per (name, run) sums over spans[lo:hi]: duration, self time, calls, amount."""
    out = {}
    for i in range(lo, hi):
        name, _, _, _, run, amount = spans[i]
        acc = out.setdefault((name, run), [0.0, 0.0, 0, 0])
        acc[0] += dur[i]
        acc[1] += own[i]
        acc[2] += 1
        acc[3] += amount
    return out
