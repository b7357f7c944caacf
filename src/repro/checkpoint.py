"""Versioned checkpoint format for :class:`~repro.core.incremental.InGrassSparsifier`.

A checkpoint is a *directory* holding two files:

``manifest.json``
    Everything JSON-able: the format version, the driver class name, the
    full :class:`~repro.core.config.InGrassConfig` (so a restored driver
    runs under exactly the configuration it was saved under), the version
    epoch, the pinned filtering level, the per-iteration history, the
    hierarchy's staleness/version counters, the maintainer's ``extra``
    blob from ``_checkpoint_runtime_state`` and, per array, its dtype,
    shape and sha256.

``arrays.npz``
    Every array: tracked graph and sparsifier edge lists (**in dict
    insertion order** — replaying them through ``add_edge_unchecked``
    reproduces the exact ``_edges`` dicts, which is what makes the
    restored run's continuation byte-identical, κ history included), the
    LRD embedding matrix, per-level cluster diameters, and the maintainer's
    pending splice neighbourhood (arrays prefixed ``extra_``).

What is deliberately **not** serialised: the similarity filter's
cluster-pair map and the resistance embedding. Both are pure functions of
the state that *is* serialised (sparsifier edges + hierarchy labels) and
are rebuilt decision-identically on first use — shipping them would only
add a second source of truth that could drift from the arrays.

The format is self-describing and strict: ``format_version`` is checked on
load and a mismatch raises — a stale reader never silently misinterprets a
newer layout, and an older one (formats 1 to 3 carried configuration
fields that no longer exist) is rejected the same way.  Every array is
checked against its manifest record, so arrays that do not belong to the
manifest (a save torn between the two files) raise instead of restoring.
Checkpoints contain no timestamps, so saving the same state twice produces
the same manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, replace
from typing import Dict, Union

import numpy as np

from repro.core.config import InGrassConfig, LRDConfig
from repro.core.embedding import ResistanceEmbedding
from repro.core.hierarchy import ClusterHierarchy
from repro.core.incremental import InGrassSparsifier, IterationRecord
from repro.core.setup import SetupResult
from repro.graphs.graph import Graph
from repro.utils.logging import get_logger

logger = get_logger("checkpoint")

#: Bump on any layout change; readers reject versions they do not know.
CHECKPOINT_FORMAT_VERSION = 4

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npz"

PathLike = Union[str, "os.PathLike[str]"]


def _edge_triplet(graph: Graph, prefix: str) -> dict:
    """The graph's edges as three parallel arrays, dict insertion order."""
    us, vs, ws = graph.edge_arrays()
    return {f"{prefix}_us": np.asarray(us, dtype=np.int64),
            f"{prefix}_vs": np.asarray(vs, dtype=np.int64),
            f"{prefix}_ws": np.asarray(ws, dtype=np.float64)}


def _rebuild_graph(num_nodes: int, data, prefix: str) -> Graph:
    """Inverse of :func:`_edge_triplet`: replay edges in saved order."""
    graph = Graph(int(num_nodes))
    us = data[f"{prefix}_us"]
    vs = data[f"{prefix}_vs"]
    ws = data[f"{prefix}_ws"]
    for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
        graph.add_edge_unchecked(u, v, w)
    return graph


def _array_record(array: np.ndarray) -> dict:
    """The manifest's record of one array: dtype, shape and a sha256 over
    dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode())
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())
    return {"dtype": array.dtype.str, "shape": list(array.shape), "sha256": digest.hexdigest()}


def _load_arrays(path: PathLike, manifest: dict) -> Dict[str, np.ndarray]:
    """Every array of the checkpoint, each verified against its manifest record."""
    with np.load(os.path.join(path, _ARRAYS)) as data:
        arrays = {name: data[name] for name in data.files}
    records = manifest["arrays"]
    for name in sorted(set(records) | set(arrays)):
        if name not in arrays or name not in records or _array_record(arrays[name]) != records[name]:
            raise ValueError(f"checkpoint at {path}: array {name!r} does not match the manifest "
                             "(torn or foreign arrays file)")
    return arrays


def save_checkpoint(driver: InGrassSparsifier, path: PathLike) -> None:
    """Write ``driver``'s full state to the directory ``path``.

    ``path`` is created if missing; an existing checkpoint there is
    overwritten atomically enough for the single-writer use case (manifest
    last, so a torn write leaves a manifest whose array records do not
    match the arrays file, and loading raises rather than restoring
    silently wrong state).
    """
    driver._require_setup()
    assert driver._graph is not None and driver._sparsifier is not None
    assert driver._setup is not None
    extra, extra_arrays = driver._checkpoint_runtime_state()
    hierarchy_state = driver._setup.hierarchy.checkpoint_state()
    pinned = driver._resolved_config()

    arrays: dict = {}
    arrays.update(_edge_triplet(driver._graph, "graph"))
    arrays.update(_edge_triplet(driver._sparsifier, "sp"))
    arrays["hier_embedding"] = hierarchy_state["embedding"]
    for index, diameters in enumerate(hierarchy_state["cluster_diameters"]):
        arrays[f"hier_diam_{index}"] = np.asarray(diameters, dtype=np.float64)
    for name, array in extra_arrays.items():
        arrays[f"extra_{name}"] = array

    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "driver_class": type(driver).__name__,
        "config": asdict(driver.config),
        "num_nodes": int(driver._graph.num_nodes),
        "version": int(driver._version),
        "target_condition_number": driver._target_condition,
        "filtering_level": pinned.filtering_level,
        "history": [asdict(record) for record in driver._history],
        "total_update_seconds": float(driver._total_update_seconds),
        "full_resetups": int(driver._full_resetups),
        "resetup_seconds": float(driver._resetup_seconds),
        "setup_seconds": float(driver._setup.setup_seconds),
        "num_levels": int(driver._setup.num_levels),
        "hierarchy": {
            "num_levels": len(hierarchy_state["cluster_diameters"]),
            "diameter_thresholds": hierarchy_state["diameter_thresholds"],
            "noted_removals": hierarchy_state["noted_removals"],
            "version": hierarchy_state["version"],
            "labels_version": hierarchy_state["labels_version"],
            "level_labels_versions": hierarchy_state["level_labels_versions"],
            "inflation_ceiling": hierarchy_state["inflation_ceiling"],
        },
        "extra": extra,
        "arrays": {name: _array_record(array) for name, array in arrays.items()},
    }

    os.makedirs(path, exist_ok=True)
    np.savez_compressed(os.path.join(path, _ARRAYS), **arrays)
    # Manifest last, and atomically (write-then-rename): the HTTP server
    # saves into a directory other processes may be inspecting or restoring
    # from concurrently — a reader must see either the previous complete
    # checkpoint or the new one, never a torn manifest.
    manifest_path = os.path.join(path, _MANIFEST)
    staging_path = manifest_path + ".tmp"
    with open(staging_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(staging_path, manifest_path)
    logger.info(
        "checkpoint saved to %s (version epoch %d, %d sparsifier edges)",
        path, manifest["version"], int(arrays["sp_us"].shape[0]),
    )


def _read_manifest(path: PathLike) -> dict:
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no checkpoint manifest at {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    found = manifest.get("format_version")
    if found != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"checkpoint at {path} has format version {found!r}; this reader "
            f"understands {CHECKPOINT_FORMAT_VERSION}"
        )
    return manifest


def _config_from_manifest(manifest: dict) -> InGrassConfig:
    config_dict = dict(manifest["config"])
    lrd = LRDConfig(**config_dict.pop("lrd"))
    return InGrassConfig(lrd=lrd, **config_dict)


def is_checkpoint(path: PathLike) -> bool:
    """Whether ``path`` looks like a checkpoint directory (manifest present)."""
    return os.path.exists(os.path.join(path, _MANIFEST))


def describe_checkpoint(path: PathLike) -> dict:
    """Summarise a checkpoint without rebuilding the driver (CLI ``info``)."""
    manifest = _read_manifest(path)
    arrays = _load_arrays(path, manifest)
    graph_edges = int(arrays["graph_us"].shape[0])
    sparsifier_edges = int(arrays["sp_us"].shape[0])
    return {
        "format_version": manifest["format_version"],
        "driver_class": manifest["driver_class"],
        "num_nodes": manifest["num_nodes"],
        "graph_edges": graph_edges,
        "sparsifier_edges": sparsifier_edges,
        "version": manifest["version"],
        "iterations": len(manifest["history"]),
        "filtering_level": manifest["filtering_level"],
        "target_condition_number": manifest["target_condition_number"],
        "hierarchy_mode": manifest["config"]["hierarchy_mode"],
        "num_levels": manifest["num_levels"],
    }


def load_checkpoint(path: PathLike) -> InGrassSparsifier:
    """Rebuild a driver from the checkpoint directory ``path``.

    The restored driver continues byte-identically to the saved one: graphs
    are replayed in saved edge order (dict order preserved), the hierarchy
    is rebuilt from its level arrays with every staleness counter restored,
    and the ``extra`` state (maintainer counters, pending splices) lands
    through ``_restore_runtime_state``.  No LRD re-run.
    """
    manifest = _read_manifest(path)
    config = _config_from_manifest(manifest)
    driver = InGrassSparsifier(config)

    data = _load_arrays(path, manifest)
    num_nodes = int(manifest["num_nodes"])
    graph = _rebuild_graph(num_nodes, data, "graph")
    sparsifier = _rebuild_graph(num_nodes, data, "sp")
    hier = manifest["hierarchy"]
    diameters = [data[f"hier_diam_{index}"]
                 for index in range(int(hier["num_levels"]))]
    hierarchy = ClusterHierarchy.from_level_arrays(
        data["hier_embedding"], diameters, hier["diameter_thresholds"])
    extra_arrays = {name[len("extra_"):]: array
                    for name, array in data.items() if name.startswith("extra_")}

    hierarchy.restore_counters(
        noted_removals=hier["noted_removals"],
        version=hier["version"],
        labels_version=hier["labels_version"],
        level_labels_versions=hier["level_labels_versions"],
        inflation_ceiling=hier["inflation_ceiling"],
    )

    driver._graph = graph
    driver._sparsifier = sparsifier
    driver._setup = SetupResult(
        hierarchy=hierarchy,
        embedding=ResistanceEmbedding(hierarchy),
        setup_seconds=float(manifest["setup_seconds"]),
        num_levels=int(manifest["num_levels"]),
    )
    target = manifest["target_condition_number"]
    driver._target_condition = float(target) if target is not None else None
    level = manifest["filtering_level"]
    driver._pinned_config = (config if config.filtering_level == level
                             else replace(config, filtering_level=level))
    driver._history = [IterationRecord(**record) for record in manifest["history"]]
    driver._total_update_seconds = float(manifest["total_update_seconds"])
    driver._full_resetups = int(manifest["full_resetups"])
    driver._resetup_seconds = float(manifest["resetup_seconds"])
    driver._version = int(manifest["version"])

    driver._restore_runtime_state(manifest.get("extra", {}), extra_arrays)
    logger.info(
        "checkpoint restored from %s (version epoch %d, %d sparsifier edges)",
        path, driver._version, sparsifier.num_edges,
    )
    return driver
