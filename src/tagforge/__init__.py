"""tagforge: node classification on text-attributed graphs.

Pluggable text-feature providers (TF-IDF, embedding files, remote
services) feed GCN / graph-transformer / MLP models trained under a fixed
protocol, with a benchmark harness emitting encoder x architecture
accuracy matrices.
"""

from .data import (
    Dataset,
    SplitMask,
    generate_synthetic,
    load_planetoid,
    split_high,
    split_low,
)
from .features import (
    EncoderSpec,
    load_embedding_file,
    remote_embed,
    save_embedding_file,
    tfidf,
)
from .graph import (
    from_edge_list,
    normalize_adjacency,
    spmm,
)
from .models import (
    Model,
    ModelSpec,
    build_context,
    forward,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from .nn import (
    Parameter,
    cross_entropy,
    dropout,
    infonce,
    matmul,
    relu,
)
from .rng import SplitMix64
from .train import (
    AdamState,
    RunResult,
    TrainSpec,
    adam_step,
    aggregate,
    evaluate,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Dataset",
    "EncoderSpec",
    "Model",
    "ModelSpec",
    "Parameter",
    "RunResult",
    "SplitMask",
    "SplitMix64",
    "TrainSpec",
    "adam_step",
    "aggregate",
    "build_context",
    "cross_entropy",
    "dropout",
    "evaluate",
    "forward",
    "from_edge_list",
    "generate_synthetic",
    "infonce",
    "init_parameters",
    "load_checkpoint",
    "load_embedding_file",
    "load_planetoid",
    "matmul",
    "normalize_adjacency",
    "relu",
    "remote_embed",
    "save_checkpoint",
    "save_embedding_file",
    "split_high",
    "split_low",
    "spmm",
    "tfidf",
    "train",
]
