"""Versioned checkpoint format for :class:`~repro.core.incremental.InGrassSparsifier`.

A checkpoint is a *directory* holding two files:

``manifest.json``
    Everything JSON-able: the format version, the driver class name, the
    full :class:`~repro.core.config.InGrassConfig` (so a restored driver
    runs under exactly the configuration it was saved under), the version
    epoch, the driver's filtering level (fixed at its last setup, so a
    restore keeps it rather than re-deriving it from the maintained
    hierarchy), the per-iteration history, the
    hierarchy's staleness/version counters, the maintainer's ``extra``
    blob from ``_checkpoint_runtime_state``, per array its dtype, shape and
    sha256, and the name of the arrays file.

``arrays-<digest>.npz``
    Every array: tracked graph and sparsifier edge lists (**in edge
    order** — :meth:`repro.graphs.graph.Graph.from_arrays` adopts them as
    the restored graphs' slots, which is what makes the restored run's
    continuation byte-identical, κ history included), the LRD embedding
    matrix, per-level cluster diameters, and the maintainer's pending
    splice neighbourhood (arrays prefixed ``extra_``).  The name carries a
    digest of the manifest's array records, so each state gets its own
    file.

What is deliberately **not** serialised: the similarity filter's
cluster-pair map. It is a pure function of the state that *is* serialised
(sparsifier edges, hierarchy labels and the filtering level) and is rebuilt
decision-identically on restore — shipping it would only add a second
source of truth that could drift from the arrays.

A save survives a crash at any point.  Its write order (format 5 on) is:

1. the arrays go to a temporary file, which is fsynced and renamed to its
   digest name;
2. the manifest naming that file goes to a temporary file, which is
   fsynced;
3. the manifest is renamed over ``manifest.json`` and the directory is
   fsynced;
4. arrays files the manifest no longer names are removed.

Until step 3 the previous manifest and the arrays file it names are
untouched, so a load after a crash at any point restores either the
previous epoch or the new one.  A reader that read the previous manifest
just before the swap can find its arrays file gone (step 4) and gets a
``ValueError``; it should retry.

The format is self-describing and strict: ``format_version`` is checked on
load and a mismatch raises — a stale reader never silently misinterprets a
newer layout, and an older one (format 5 carried the
``InGrassConfig.filtering_level`` field, which no longer exists; format 4
overwrote one ``arrays.npz`` in place; formats 1 to 3 carried other
configuration fields that no longer exist) is rejected the same way.  Every
array is checked against its manifest record, and an unreadable arrays file
raises ``ValueError`` naming the checkpoint.
Checkpoints contain no timestamps, so saving the same state twice produces
the same manifest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
import zlib
from dataclasses import asdict
from typing import Dict, Union

import numpy as np

from repro.core.config import InGrassConfig, LRDConfig
from repro.core.hierarchy import ClusterHierarchy
from repro.core.incremental import InGrassSparsifier, IterationRecord
from repro.core.setup import SetupResult
from repro.graphs.graph import Graph
from repro.utils.logging import get_logger

logger = get_logger("checkpoint")

#: Bump on any layout change; readers reject versions they do not know.
CHECKPOINT_FORMAT_VERSION = 6

_MANIFEST = "manifest.json"
_ARRAYS_PREFIX = "arrays-"

PathLike = Union[str, "os.PathLike[str]"]


def _edge_triplet(graph: Graph, prefix: str) -> dict:
    """The graph's edges as three parallel arrays, in edge order."""
    us, vs, ws = graph.edge_arrays()
    return {f"{prefix}_us": np.asarray(us, dtype=np.int64),
            f"{prefix}_vs": np.asarray(vs, dtype=np.int64),
            f"{prefix}_ws": np.asarray(ws, dtype=np.float64)}


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
    name = os.path.basename(str(manifest.get("arrays_file", "")))
    try:
        with np.load(os.path.join(path, name)) as data:
            arrays = {key: data[key] for key in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"checkpoint at {path}: arrays file {name!r} is unreadable ({exc})") from exc
    records = manifest["arrays"]
    for key in sorted(set(records) | set(arrays)):
        if key not in arrays or key not in records or _array_record(arrays[key]) != records[key]:
            raise ValueError(f"checkpoint at {path}: array {key!r} does not match the manifest "
                             "(torn or foreign arrays file)")
    return arrays


def _write_durably(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file, fsync it and rename it to ``path``."""
    staging = path + ".tmp"
    descriptor = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(descriptor, view):]
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
    os.replace(staging, path)


def _fsync_directory(path: PathLike) -> None:
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def save_checkpoint(driver: InGrassSparsifier, path: PathLike) -> None:
    """Write ``driver``'s full state to the directory ``path``.

    ``path`` is created if missing.  An existing checkpoint there is
    replaced in the crash-safe write order of the module docstring: a
    restore after a crash at any point sees either the previous checkpoint
    or the new one.  A reader running while a save completes may get a
    ``ValueError`` (the arrays file its manifest named was removed in step
    4) and should retry.
    """
    driver._require_setup()
    assert driver._graph is not None and driver._sparsifier is not None
    assert driver._setup is not None
    extra, extra_arrays = driver._checkpoint_runtime_state()
    hierarchy_state = driver._setup.hierarchy.checkpoint_state()

    arrays: dict = {}
    arrays.update(_edge_triplet(driver._graph, "graph"))
    arrays.update(_edge_triplet(driver._sparsifier, "sp"))
    arrays["hier_embedding"] = hierarchy_state["embedding"]
    for index, diameters in enumerate(hierarchy_state["cluster_diameters"]):
        arrays[f"hier_diam_{index}"] = np.asarray(diameters, dtype=np.float64)
    for name, array in extra_arrays.items():
        arrays[f"extra_{name}"] = array

    records = {name: _array_record(array) for name, array in arrays.items()}
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    arrays_file = f"{_ARRAYS_PREFIX}{digest[:16]}.npz"
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "driver_class": type(driver).__name__,
        "config": asdict(driver.config),
        "num_nodes": int(driver._graph.num_nodes),
        "version": int(driver._version),
        "target_condition_number": driver._target_condition,
        "filtering_level": driver.filtering_level,
        "history": [asdict(record) for record in driver._history],
        "total_update_seconds": float(driver._total_update_seconds),
        "full_resetups": int(driver._full_resetups),
        "resetup_seconds": float(driver._resetup_seconds),
        "setup_seconds": float(driver._setup.setup_seconds),
        "num_levels": int(driver._setup.hierarchy.num_levels),
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
        "arrays": records,
        "arrays_file": arrays_file,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    os.makedirs(path, exist_ok=True)
    # The HTTP server saves into a directory other processes may be
    # inspecting or restoring from concurrently: until the manifest swap,
    # the previous manifest and the arrays file it names stay untouched.
    archive = io.BytesIO()
    np.savez_compressed(archive, **arrays)
    _write_durably(os.path.join(path, arrays_file), archive.getvalue())
    _write_durably(os.path.join(path, _MANIFEST), text.encode())
    _fsync_directory(path)
    for stale in os.listdir(path):
        if stale.startswith(_ARRAYS_PREFIX) and stale != arrays_file:
            os.remove(os.path.join(path, stale))
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
    adopt the saved edge arrays in order as their slots, the hierarchy
    is rebuilt from its level arrays with every staleness counter restored,
    the similarity filter is rebuilt at the saved filtering level, and the
    ``extra`` state (maintainer counters, pending splices) lands through
    ``_restore_runtime_state``.  No LRD re-run.
    """
    manifest = _read_manifest(path)
    config = _config_from_manifest(manifest)
    driver = InGrassSparsifier(config)

    data = _load_arrays(path, manifest)
    num_nodes = int(manifest["num_nodes"])
    graph, sparsifier = (Graph.from_arrays(num_nodes, data[f"{prefix}_us"], data[f"{prefix}_vs"],
                                           data[f"{prefix}_ws"]) for prefix in ("graph", "sp"))
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
    driver._setup = SetupResult(hierarchy=hierarchy,
                                setup_seconds=float(manifest["setup_seconds"]))
    driver._target_condition = float(manifest["target_condition_number"])
    driver._bind_engine(int(manifest["filtering_level"]))
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
