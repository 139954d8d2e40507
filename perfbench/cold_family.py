"""Family links of a cold build of an extract plus mutation batches.

Usage (``PYTHONPATH=src``)::

    python3 perfbench/cold_family.py EXTRACT_DIR BATCHES.json CLUSTERS

Trains the link classifiers from the extract and its
``ground_truth.json`` exactly as ``repro serve`` does at boot, applies
every batch in order, then runs one cold ``SnapshotBuilder.build`` of
the final graph with the served clustering settings and prints the
sorted family links as JSON.  The benchmark compares them with what the
server published after the same batches arrived one at a time.
"""

import json
import sys
from pathlib import Path

from repro.graph.io import read_company_csv
from repro.linkage.training import persons_of, train_classifiers
from repro.service import SnapshotBuilder, SnapshotConfig, apply_deltas


def main() -> int:
    extract, batches_path, clusters = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
    graph = read_company_csv(extract)
    truth = json.loads((extract / "ground_truth.json").read_text())
    classifiers = train_classifiers(
        persons_of(graph), {tuple(link) for link in truth["links"]}
    )
    for batch in json.loads(batches_path.read_text()):
        apply_deltas(graph, batch)
    config = SnapshotConfig(first_level_clusters=clusters, use_embeddings=clusters > 1)
    snapshot = SnapshotBuilder(config, classifiers=classifiers).build(graph)
    print(json.dumps(sorted([x, y, c] for x, y, c in snapshot.family_links)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
