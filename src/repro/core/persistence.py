"""Saving and loading trained GRAFICS models.

A deployed floor-identification service trains offline (possibly on a beefy
machine) and serves online inference elsewhere, so the trained state must be
serialisable.  A GRAFICS model is fully described by:

* its served graph: the record/MAC index maps, the weighted degrees (the
  negative-sampling distribution new samples are embedded against) and the
  edge count — the training edges themselves are never read again,
* the ego/context embedding matrices,
* the trained clusters (members, floor labels, centroids),
* the configuration (embedding hyperparameters and weight function).

The on-disk format (version 2) is a single ``.npz`` file holding the numeric
arrays (``ego``, ``context``, ``centroids``, ``degrees``) plus a JSON blob
for the structured metadata.  Version-1 files stored every edge as a JSON
``[mac, record, weight]`` triple instead of the degrees; they still load:
the graph is rebuilt from the triples and then frozen.  Only the weight
functions shipped with the library can be restored by name; custom weight
functions require the caller to rebuild the configuration manually after
loading.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..faults import failpoints
from .clustering.hierarchical import ClusteringResult
from .clustering.model import ClusterModel, FloorCluster
from .embedding.base import EmbeddingConfig, GraphEmbedding
from .graph import BipartiteGraph, NodeKind, ServedGraph
from .pipeline import GRAFICS, GraficsConfig
from .registry import MultiBuildingFloorService
from .types import SignalRecord
from .weighting import ClippedOffsetWeight, OffsetWeight, PowerWeight, WeightFunction

__all__ = [
    "CheckpointCorruptError",
    "save_model",
    "load_model",
    "fit_model",
    "save_registry",
    "load_registry",
    "save_stream_state",
    "load_stream_state",
    "record_to_payload",
    "record_from_payload",
    "grafics_config_to_payload",
    "grafics_config_from_payload",
]

_FORMAT_VERSION = 2
_REGISTRY_FORMAT_VERSION = 1
_REGISTRY_MANIFEST = "manifest.json"
_STREAM_STATE_VERSION = 1


class CheckpointCorruptError(ValueError):
    """A checkpoint payload failed its integrity check.

    Raised when a stream-state or model file is truncated, unparseable,
    fails its stored SHA-256 digest, or (a model file) has parts that
    disagree — a degree vector or embedding that does not span its index
    maps, or a version-1 edge list naming a node the maps lack — i.e. the
    bytes on disk are not a state a writer could serve.  Distinct from
    :class:`FileNotFoundError` (nothing was ever written there) and from
    plain :class:`ValueError` version mismatches (a well-formed file from
    an incompatible writer):
    corruption is the one case where falling back to the retained
    previous-generation checkpoint is the right move, and ``resume()``
    keys that decision off this type.
    """


def _state_digest(state: dict) -> str:
    """SHA-256 over the canonical JSON form of a stream-state payload.

    The state is round-tripped through JSON first so the digest of the
    in-memory dict (whose keys may be ints) matches the digest of the
    reloaded dict (whose keys are the strings JSON made of them).
    """
    normalised = json.loads(json.dumps(state))
    blob = json.dumps(normalised, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sweep_stale_tmp_files(directory: Path) -> int:
    """Delete leftover ``*.tmp`` / ``*.tmp.npz`` files from crashed writes.

    Atomic writers clean their temp file up on every in-process unwind, so
    anything still matching these patterns was orphaned by a hard kill
    mid-write.  Callers (registry save/load) assume a single writer per
    registry directory — the same assumption the atomic-rename scheme
    itself already makes.
    """
    removed = 0
    for stale in list(directory.glob("*.tmp")) + list(directory.glob("*.tmp.npz")):
        try:
            stale.unlink()
        except OSError:
            continue
        removed += 1
    return removed


def _weight_function_to_dict(weight_function: WeightFunction) -> dict:
    if isinstance(weight_function, ClippedOffsetWeight):
        return {"name": "clipped-offset", "offset": weight_function.offset,
                "min_weight": weight_function.min_weight}
    if isinstance(weight_function, OffsetWeight):
        return {"name": "offset", "offset": weight_function.offset}
    if isinstance(weight_function, PowerWeight):
        return {"name": "power", "scale": weight_function.scale}
    raise ValueError(
        f"cannot serialise custom weight function {type(weight_function).__name__}; "
        "use one of the built-in weight functions or rebuild the config manually")


def _weight_function_from_dict(payload: dict) -> WeightFunction:
    name = payload["name"]
    if name == "offset":
        return OffsetWeight(offset=payload["offset"])
    if name == "clipped-offset":
        return ClippedOffsetWeight(offset=payload["offset"],
                                   min_weight=payload["min_weight"])
    if name == "power":
        return PowerWeight(scale=payload["scale"])
    raise ValueError(f"unknown weight function {name!r} in saved model")


def grafics_config_to_payload(config: GraficsConfig) -> dict:
    """A GRAFICS configuration as a JSON-serialisable dict.

    Used inside saved model files and by the stream-state checkpoint, which
    must restore the *training* configuration too — retrains on a resumed
    node have to build models with exactly the hyperparameters the
    uninterrupted node would have used.
    """
    return {
        "embedding_dimension": config.embedding_dimension,
        "embedder": config.embedder,
        "allow_unreachable_clusters": config.allow_unreachable_clusters,
        "weight_function": _weight_function_to_dict(config.weight_function),
        "embedding": asdict(config.resolved_embedding_config()),
    }


def grafics_config_from_payload(payload: dict) -> GraficsConfig:
    """Rebuild a GRAFICS configuration written by the payload writer.

    Keys of retired settings are dropped: ``embedding.sampler_mode``
    (``"exact"``/``"delta"``, from when the online negative sampler was
    selectable) and ``embedding.kernel`` (``"reference"``/``"fused"``, from
    when the fit kernel was; every fit now runs the fused kernel).
    """
    embedding = dict(payload["embedding"])
    embedding.pop("sampler_mode", None)
    embedding.pop("kernel", None)
    return GraficsConfig(
        embedding_dimension=payload["embedding_dimension"],
        embedder=payload["embedder"],
        allow_unreachable_clusters=payload["allow_unreachable_clusters"],
        weight_function=_weight_function_from_dict(payload["weight_function"]),
        embedding=EmbeddingConfig(**embedding),
    )


def save_model(model: GRAFICS, path: str | Path) -> None:
    """Serialise a fitted GRAFICS model to ``path`` (a ``.npz`` file)."""
    if not model.is_fitted:
        raise ValueError("cannot save an unfitted GRAFICS model")
    path = Path(path)
    clustering = model.clustering
    metadata = {
        "format_version": _FORMAT_VERSION,
        "config": grafics_config_to_payload(model.config),
        "record_index": model.embedding.record_index,
        "mac_index": model.embedding.mac_index,
        "num_edges": model.graph.num_edges,
        "clusters": [
            {
                "cluster_id": cluster.cluster_id,
                "floor": cluster.floor,
                "member_record_ids": list(cluster.member_record_ids),
            }
            for cluster in model.cluster_model.clusters
        ],
        "cluster_assignments": clustering.assignments if clustering else {},
        "cluster_labels": ({str(k): v for k, v in clustering.cluster_labels.items()}
                           if clustering else {}),
    }

    centroids = np.vstack([c.centroid for c in model.cluster_model.clusters])
    np.savez_compressed(
        path,
        ego=model.embedding.ego,
        context=model.embedding.context,
        centroids=centroids,
        degrees=model.graph.degrees,
        metadata=np.frombuffer(json.dumps(metadata).encode("utf-8"),
                               dtype=np.uint8),
    )


def _rebuild_graph(edges: list, weight_function: WeightFunction,
                   record_index: dict | None = None,
                   mac_index: dict | None = None) -> BipartiteGraph:
    """Reconstruct a version-1 file's bipartite graph from its edge triples.

    When the saved node→row maps are given and contiguous (always true for
    graphs built by ``GRAFICS.fit``), nodes are recreated in their original
    index order, so every node lands on exactly the index it had when the
    model was saved.  This matters beyond aesthetics: online inference seeds
    its negative sampler over the node index space, so a graph rebuilt in a
    different order would give subtly different (still valid, but not
    byte-identical) predictions than the model that was saved — breaking the
    serving guarantee that a restart serves exactly what the live process
    served.
    """
    graph = BipartiteGraph(weight_function=weight_function)
    if record_index is not None and mac_index is not None:
        order = sorted(
            [(row, NodeKind.RECORD, key) for key, row in record_index.items()]
            + [(row, NodeKind.MAC, key) for key, row in mac_index.items()])
        if [row for row, _, _ in order] == list(range(len(order))):
            for _, kind, key in order:
                if kind is NodeKind.MAC:
                    graph.add_mac(key)
                else:
                    graph._add_node(NodeKind.RECORD, key)  # noqa: SLF001
            for mac, record_id, weight in edges:
                graph._set_edge(  # noqa: SLF001
                    graph.get_node(NodeKind.MAC, mac).index,
                    graph.get_node(NodeKind.RECORD, record_id).index,
                    float(weight))
            return graph
    # Non-contiguous saved indices (not produced by any current writer):
    # rebuild in per-record insertion order and let the caller re-map rows.
    per_record: dict[str, dict[str, float]] = {}
    for mac, record_id, weight in edges:
        per_record.setdefault(record_id, {})[mac] = float(weight)
    for record_id, weighted_macs in per_record.items():
        record_node = graph._add_node(NodeKind.RECORD, record_id)  # noqa: SLF001
        for mac, weight in weighted_macs.items():
            mac_node = graph.add_mac(mac)
            graph._set_edge(mac_node.index, record_node.index, weight)  # noqa: SLF001
    return graph


def _load_served_graph(path: Path, metadata: dict, ego: np.ndarray,
                       context: np.ndarray, degrees: np.ndarray | None,
                       config: GraficsConfig,
                       ) -> tuple[ServedGraph, GraphEmbedding]:
    """A version-2 file's served graph and embedding, which share the maps."""
    record_index = metadata["record_index"]
    mac_index = metadata["mac_index"]
    capacity = len(record_index) + len(mac_index)
    num_edges = metadata.get("num_edges")
    if degrees is None or not isinstance(num_edges, int):
        raise CheckpointCorruptError(
            f"model file {path} lacks its degrees array or edge count")
    rows = sorted([*record_index.values(), *mac_index.values()])
    if (rows != list(range(capacity)) or degrees.shape != (capacity,)
            or ego.shape[0] != capacity or context.shape != ego.shape):
        raise CheckpointCorruptError(
            f"model file {path} is inconsistent: its degrees "
            f"{degrees.shape} and embedding {ego.shape} do not span the "
            f"{capacity} indices of its saved index maps")
    graph = ServedGraph(record_index, mac_index, degrees, num_edges,
                        config.weight_function)
    embedding = GraphEmbedding(ego=ego, context=context,
                               record_index=record_index, mac_index=mac_index,
                               config=config.embedding)
    return graph, embedding


def _load_edge_triples(path: Path, metadata: dict, ego: np.ndarray,
                       context: np.ndarray, config: GraficsConfig,
                       ) -> tuple[ServedGraph, GraphEmbedding]:
    """A version-1 file's graph, rebuilt from its edge triples and frozen."""
    old_record_index = metadata["record_index"]
    old_mac_index = metadata["mac_index"]
    dim = ego.shape[1]
    try:
        graph = _rebuild_graph(metadata["edges"], config.weight_function,
                               record_index=old_record_index,
                               mac_index=old_mac_index)

        # Embedding rows are re-ordered to the rebuilt indices.  With the
        # index-preserving rebuild this is an identity copy; the mapping is
        # kept for graphs whose saved indices were not contiguous.
        new_ego = np.zeros((graph.index_capacity, dim))
        new_context = np.zeros((graph.index_capacity, dim))
        record_index: dict[str, int] = {}
        mac_index: dict[str, int] = {}
        for node in graph.nodes():
            if node.kind is NodeKind.RECORD:
                old_row = old_record_index[node.key]
                record_index[node.key] = node.index
            else:
                old_row = old_mac_index[node.key]
                mac_index[node.key] = node.index
            new_ego[node.index] = ego[old_row]
            new_context[node.index] = context[old_row]
    except KeyError as error:
        # An edge naming a node the saved index maps lack: the file's
        # parts disagree, so no graph and embedding pair can be rebuilt.
        raise CheckpointCorruptError(
            f"model file {path} is inconsistent: its edge list names a node "
            f"missing from the saved index maps ({error})") from error

    embedding = GraphEmbedding(ego=new_ego, context=new_context,
                               record_index=record_index, mac_index=mac_index,
                               config=config.embedding)
    return graph.freeze(record_index, mac_index), embedding


def load_model(path: str | Path) -> GRAFICS:
    """Restore a GRAFICS model saved with :func:`save_model`.

    Reads format-2 files and legacy format-1 ones (edge triples).  The
    returned model supports online inference (``predict`` /
    ``predict_batch``) exactly like the freshly trained one.
    """
    path = Path(path)
    failpoints.fire("checkpoint.read", path=path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            ego = archive["ego"]
            context = archive["context"]
            centroids = archive["centroids"]
            degrees = (archive["degrees"] if "degrees" in archive.files
                       else None)
            metadata = json.loads(
                bytes(archive["metadata"].tobytes()).decode("utf-8"))
    except FileNotFoundError:
        raise  # missing is not corrupt; callers distinguish the two
    except (zipfile.BadZipFile, ValueError, KeyError, OSError,
            EOFError) as error:
        # A torn or bit-flipped npz surfaces as whatever layer noticed
        # first (zip directory, array header, metadata JSON); normalise to
        # the typed error recovery paths key on.
        raise CheckpointCorruptError(
            f"model file {path} is corrupt or truncated: {error}") from error

    version = metadata.get("format_version")
    if version not in (1, _FORMAT_VERSION):
        raise ValueError(f"unsupported model format version {version!r}")

    config = grafics_config_from_payload(metadata["config"])
    if version == 1:
        graph, embedding = _load_edge_triples(path, metadata, ego, context,
                                              config)
    else:
        graph, embedding = _load_served_graph(path, metadata, ego, context,
                                              degrees, config)

    clusters = [FloorCluster(cluster_id=int(blob["cluster_id"]),
                             floor=int(blob["floor"]),
                             centroid=centroids[i],
                             member_record_ids=tuple(blob["member_record_ids"]))
                for i, blob in enumerate(metadata["clusters"])]
    cluster_model = ClusterModel(clusters)

    clustering = ClusteringResult(
        assignments={k: int(v) for k, v in metadata["cluster_assignments"].items()},
        cluster_labels={int(k): int(v)
                        for k, v in metadata["cluster_labels"].items()},
        cluster_members={c.cluster_id: list(c.member_record_ids)
                         for c in clusters},
        record_ids=list(metadata["cluster_assignments"].keys()),
    )

    model = GRAFICS(config)
    model.graph = graph
    model.embedding = embedding
    model.clustering = clustering
    model.cluster_model = cluster_model
    return model


# --------------------------------------------------------------- registries
def _registry_model_filename(building_id: str) -> str:
    """Stable, filesystem-safe filename for one building's model.

    Derived from the building id (not from its position in the registry) so
    that re-saving a reordered or partially retrained registry only ever
    overwrites a building's file with a newer model of the *same* building.
    A crash between the per-building writes and the manifest swap then
    leaves the old manifest pointing at the right buildings — possibly a
    fresher model for some, never another building's model.
    """
    digest = hashlib.sha1(building_id.encode("utf-8")).hexdigest()[:16]
    return f"building-{digest}.npz"


def _atomic_save_model(model: GRAFICS, path: Path) -> None:
    """Write a model file via a same-directory temp file and atomic rename."""
    # The suffix must stay ".npz" or np.savez would append one and the
    # rename would move the wrong (empty) file.
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp.npz")
    os.close(fd)
    try:
        save_model(model, tmp_name)
        # Between the temp write and the rename is exactly where a torn
        # write or crash-kill bites; the failpoint sits there on purpose.
        failpoints.fire("checkpoint.write", path=tmp_name)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def fit_model(config: GraficsConfig, dataset, labels,
              warm_start: GraphEmbedding | None = None,
              model_path: str | Path | None = None) -> GRAFICS:
    """Fit a fresh model off to the side; optionally persist and reload it.

    The one retrain routine behind every hot swap (the service's
    ``retrain_building`` and the stream executor).  With ``model_path``
    the model is written atomically (temp file, then rename) and read
    back, so what the caller installs is exactly what a restart would
    load from disk.  Installing stays with the caller.
    """
    model = GRAFICS(config)
    model.fit(dataset, labels, warm_start=warm_start)
    if model_path is not None:
        model_path = Path(model_path)
        model_path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_save_model(model, model_path)
        model = load_model(model_path)
    return model


def save_registry(service: MultiBuildingFloorService, directory: str | Path) -> None:
    """Serialise a whole multi-building registry to ``directory``.

    Each building's model becomes one ``.npz`` file (via :func:`save_model`)
    and a ``manifest.json`` records building ids, their attribution
    vocabularies and the registration order — the order is part of the
    attribution semantics (it breaks overlap ties), so it must survive the
    round trip.  Every file is written to a temporary name and atomically
    renamed, model files are named after the building id rather than its
    position, and the manifest is swapped in last: a crash mid-save leaves
    the directory loading either the old registry or the new one per
    building, never a model filed under another building's id.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _sweep_stale_tmp_files(directory)
    buildings = []
    for building_id, vocabulary in service.vocabularies.items():
        filename = _registry_model_filename(building_id)
        _atomic_save_model(service.model_for(building_id),
                           directory / filename)
        buildings.append({
            "building_id": building_id,
            "file": filename,
            "sha256": _file_digest(directory / filename),
            "vocabulary": sorted(vocabulary),
        })
    manifest = {
        "format_version": _REGISTRY_FORMAT_VERSION,
        "min_overlap": service.min_overlap,
        "buildings": buildings,
    }
    tmp_path = directory / (_REGISTRY_MANIFEST + ".tmp")
    tmp_path.write_text(json.dumps(manifest, indent=2))
    tmp_path.replace(directory / _REGISTRY_MANIFEST)


def load_registry(directory: str | Path,
                  config: GraficsConfig | None = None) -> MultiBuildingFloorService:
    """Restore a registry saved with :func:`save_registry`.

    ``config`` only affects buildings trained *after* loading; the restored
    per-building models keep the configurations they were trained with.
    """
    directory = Path(directory)
    manifest_path = directory / _REGISTRY_MANIFEST
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"{directory} does not contain a registry manifest "
            f"({_REGISTRY_MANIFEST})")
    _sweep_stale_tmp_files(directory)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointCorruptError(
            f"registry manifest {manifest_path} is not valid JSON "
            f"(torn write?): {error}") from error
    if manifest.get("format_version") != _REGISTRY_FORMAT_VERSION:
        raise ValueError(f"unsupported registry format version "
                         f"{manifest.get('format_version')!r}")

    service = MultiBuildingFloorService(config,
                                        min_overlap=manifest["min_overlap"])
    for blob in manifest["buildings"]:
        model_path = directory / blob["file"]
        # Manifests written before the integrity layer carry no digest;
        # they still load, just without the corruption check.
        expected = blob.get("sha256")
        if expected is not None:
            if not model_path.is_file():
                raise CheckpointCorruptError(
                    f"registry manifest lists {model_path.name} but the "
                    "file is missing")
            if _file_digest(model_path) != expected:
                raise CheckpointCorruptError(
                    f"model file {model_path} does not match its manifest "
                    "sha256 digest (torn write or bitrot)")
        model = load_model(model_path)
        service.install_model(blob["building_id"], model,
                              vocabulary=blob["vocabulary"])
    return service


# ------------------------------------------------------------- stream state
def record_to_payload(record: SignalRecord) -> dict:
    """One signal record as a JSON-serialisable dict (full round trip)."""
    return {
        "record_id": record.record_id,
        "rss": dict(record.rss),
        "floor": record.floor,
        "device": record.device,
        "timestamp": record.timestamp,
    }


def record_from_payload(payload: dict) -> SignalRecord:
    """Rebuild a signal record written by :func:`record_to_payload`."""
    return SignalRecord(
        record_id=str(payload["record_id"]),
        rss={str(mac): float(value)
             for mac, value in payload["rss"].items()},
        floor=None if payload.get("floor") is None else int(payload["floor"]),
        device=payload.get("device"),
        timestamp=payload.get("timestamp"),
    )


def save_stream_state(state: dict, path: str | Path) -> None:
    """Atomically write a stream-state checkpoint (versioned JSON).

    The payload is whatever the continuous-learning pipeline's
    ``state_dict()`` collected — per-building windows, drift baselines,
    scheduler counters, ingest buffers and filter state (see
    :meth:`repro.stream.ContinuousLearningPipeline.checkpoint`).  Models
    are *not* in here; they round-trip separately through
    :func:`save_registry`/:func:`load_registry`.  The file is written to a
    same-directory temporary name and renamed into place, so a crash
    mid-checkpoint leaves the previous checkpoint intact, never a torn one.
    """
    path = Path(path)
    payload = {"format_version": _STREAM_STATE_VERSION,
               "sha256": _state_digest(state), "state": state}
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        tmp_path.write_text(json.dumps(payload, indent=2))
        failpoints.fire("checkpoint.write", path=tmp_path)
        tmp_path.replace(path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise


def load_stream_state(path: str | Path) -> dict:
    """Read a checkpoint written by :func:`save_stream_state`.

    Verifies the embedded SHA-256 digest when one is present (checkpoints
    from before the integrity layer have none and still load); truncated,
    unparseable or digest-failing files raise
    :class:`CheckpointCorruptError`.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no stream-state checkpoint at {path}")
    failpoints.fire("checkpoint.read", path=path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointCorruptError(
            f"stream-state checkpoint {path} is not valid JSON "
            f"(torn write?): {error}") from error
    if not isinstance(payload, dict) or "state" not in payload:
        raise CheckpointCorruptError(
            f"stream-state checkpoint {path} has no state payload")
    if payload.get("format_version") != _STREAM_STATE_VERSION:
        raise ValueError(f"unsupported stream-state format version "
                         f"{payload.get('format_version')!r}")
    expected = payload.get("sha256")
    if expected is not None and _state_digest(payload["state"]) != expected:
        raise CheckpointCorruptError(
            f"stream-state checkpoint {path} does not match its sha256 "
            "digest (torn write or bitrot)")
    return payload["state"]
