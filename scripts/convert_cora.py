#!/usr/bin/env python3
"""Convert the public Cora release (cora.content + cora.cites) into the
on-disk layout this package loads.

The classic release stores one line per paper in ``cora.content``::

    <paper_id> <1433 binary word flags> <class_label>

and one directed citation per line in ``cora.cites``. This script maps
paper ids to dense node ids (content order), label strings to class ids
(sorted order), and writes:

    <out>/cora.labels    one class id per line
    <out>/cora.edges     two node ids per line (direction kept; the loader
                         symmetrizes)
    <out>/cora.features  EMB1 binary bag-of-words matrix

The dataset loader reads only the labels and edges. Acceptance criteria 5
and 6 read cora.features themselves (point the suite at the result with
TAGFORGE_DATA=<out>); a ``tagforge bench`` config uses it through a
``file`` encoder, ``{"name": "bow", "kind": "file", "path":
"<out>/cora.features"}``.
Node/edge counts of public mirrors vary slightly; the summary printed at
the end shows what was actually converted.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tagforge.features import save_embedding_file


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("content", help="path to cora.content")
    parser.add_argument("cites", help="path to cora.cites")
    parser.add_argument("--out", default="data/cora", help="output directory")
    args = parser.parse_args()

    ids: list[str] = []
    rows: list[list[float]] = []
    label_names: list[str] = []
    with open(args.content) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            ids.append(parts[0])
            rows.append([float(v) for v in parts[1:-1]])
            label_names.append(parts[-1])
    index = {paper: i for i, paper in enumerate(ids)}
    classes = sorted(set(label_names))
    class_id = {name: c for c, name in enumerate(classes)}

    edges = []
    skipped = 0
    with open(args.cites) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 2:
                continue
            if parts[0] in index and parts[1] in index:
                edges.append((index[parts[0]], index[parts[1]]))
            else:
                skipped += 1

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, "cora")
    with open(stem + ".labels", "w") as fh:
        fh.write("\n".join(str(class_id[name]) for name in label_names) + "\n")
    with open(stem + ".edges", "w") as fh:
        fh.write("\n".join(f"{i} {j}" for i, j in edges) + "\n")
    save_embedding_file(stem + ".features", np.array(rows, dtype=np.float32))

    print(f"nodes: {len(ids)}")
    print(f"classes: {len(classes)} ({', '.join(classes)})")
    print(f"feature dim: {len(rows[0])}")
    print(f"citations kept: {len(edges)} (skipped {skipped} with unknown ids)")
    print(f"wrote {stem}.labels / .edges / .features")
    print(f"use {stem}.features in a bench config through a file encoder: "
          f'{{"name": "bow", "kind": "file", "path": "{stem}.features"}}')
    print(f"run the desk-scale reproduction with: TAGFORGE_DATA={args.out} "
          f"pytest tests/test_acceptance.py -v -s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
