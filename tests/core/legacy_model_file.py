"""Writers for model files in the layouts older writers produced.

Format 1 stored the fitted graph's every edge as a JSON ``[mac, record,
weight]`` triple and no degree vector.  A fitted model no longer keeps its
edges, so :func:`save_format1_model` rebuilds them from the training records
with ``build_graph`` (which gives the fit's index order) and otherwise writes
exactly what the format-1 writer wrote.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.graph import build_graph
from repro.core.persistence import grafics_config_to_payload


def save_format1_model(model, train_records, path) -> None:
    """Write ``model`` as a format-1 file; ``train_records`` are its fit's."""
    graph = build_graph(list(train_records),
                        weight_function=model.config.weight_function)
    clustering = model.clustering
    metadata = {
        "format_version": 1,
        "config": grafics_config_to_payload(model.config),
        "record_index": model.embedding.record_index,
        "mac_index": model.embedding.mac_index,
        "edges": [[graph.node_at(edge.mac_index).key,
                   graph.node_at(edge.record_index).key,
                   edge.weight]
                  for edge in graph.edges()],
        "clusters": [
            {
                "cluster_id": cluster.cluster_id,
                "floor": cluster.floor,
                "member_record_ids": list(cluster.member_record_ids),
            }
            for cluster in model.cluster_model.clusters
        ],
        "cluster_assignments": clustering.assignments,
        "cluster_labels": {str(k): v
                           for k, v in clustering.cluster_labels.items()},
    }
    centroids = np.vstack([c.centroid for c in model.cluster_model.clusters])
    np.savez_compressed(
        path,
        ego=model.embedding.ego,
        context=model.embedding.context,
        centroids=centroids,
        metadata=np.frombuffer(json.dumps(metadata).encode("utf-8"),
                               dtype=np.uint8),
    )


def rewrite_model_arrays(path, edit) -> None:
    """Rewrite a model file with ``edit(arrays)`` applied to its arrays."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    np.savez_compressed(path, **arrays)
