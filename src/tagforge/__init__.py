"""tagforge: node classification on text-attributed graphs.

Pluggable text-feature providers (TF-IDF, embedding files, remote
services) feed GCN / graph-transformer / MLP models trained under a fixed
protocol, with a benchmark harness emitting encoder x architecture
accuracy matrices.
"""
