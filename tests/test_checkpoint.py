"""Tests of the versioned checkpoint format (``repro.checkpoint``).

The contract under test is *byte-identical continuation*: a driver saved
after N batches and restored — into this process or a freshly spawned one —
must replay the remaining stream to exactly the state an uninterrupted run
reaches: same sparsifier edge dict (set, weights, insertion order), same
graph, same κ, same history fingerprint, same version counter.  The property
is checked at several save points, with the restored driver resuming in this
thread, on a worker thread or in a spawned interpreter.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    describe_checkpoint,
    is_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.core import InGrassConfig, LRDConfig
from repro.core.incremental import InGrassSparsifier
from repro.graphs.generators import grid_circuit_2d
from repro.service import SparsifierService
from repro.streams.scenarios import DynamicScenarioConfig, build_dynamic_scenario

DENSE_LIMIT = 600

#: One deterministic churn scenario shared by every round-trip test (and
#: rebuilt bit-identically inside the spawned-process test's child).
SCENARIO_SIDE = 11
SCENARIO_SEED = 4
SCENARIO_KWARGS = dict(
    initial_offtree_density=0.10, final_offtree_density=0.40,
    num_iterations=6, deletion_fraction=0.3,
    condition_dense_limit=DENSE_LIMIT, seed=0,
)


def make_config():
    return InGrassConfig(
        lrd=LRDConfig(seed=0),
        kappa_guard_dense_limit=DENSE_LIMIT,
        kappa_guard_factor=1.8,
        seed=0,
    )


@pytest.fixture(scope="module")
def scenario():
    graph = grid_circuit_2d(SCENARIO_SIDE, seed=SCENARIO_SEED)
    return build_dynamic_scenario(graph, DynamicScenarioConfig(**SCENARIO_KWARGS))


def start_driver(scenario, config):
    driver = InGrassSparsifier(config)
    driver.setup(scenario.graph, scenario.initial_sparsifier,
                 target_condition_number=scenario.initial_condition_number)
    return driver


HISTORY_FIELDS = (
    "streamed_edges", "added_edges", "merged_edges", "redistributed_edges",
    "dropped_edges", "removed_edges", "repair_edges", "reweighted_edges",
    "filtering_level", "sparsifier_edges",
)


def history_fingerprint(driver):
    return [tuple(getattr(r, name) for name in HISTORY_FIELDS) for r in driver.history]


def fingerprint(driver):
    """Everything the byte-identical-continuation contract promises."""
    return {
        "sparsifier": driver.sparsifier.edge_list(),
        "graph": driver.graph.edge_list(),
        "version": driver.latest_version,
        "history": history_fingerprint(driver),
        "kappa": driver.condition_number(dense_limit=DENSE_LIMIT),
    }


def replay_in_fresh_process(path, start):
    """Restore ``path`` in a spawned interpreter, replay the scenario from
    batch ``start`` there and return the child's fingerprint (JSON-decoded).

    The child rebuilds the (deterministic) scenario itself, so nothing but
    the checkpoint directory crosses the process boundary.
    """
    child_script = f"""
import json
from repro.checkpoint import load_checkpoint
from repro.graphs.generators import grid_circuit_2d
from repro.streams.scenarios import DynamicScenarioConfig, build_dynamic_scenario

graph = grid_circuit_2d({SCENARIO_SIDE}, seed={SCENARIO_SEED})
scenario = build_dynamic_scenario(
    graph, DynamicScenarioConfig(**{SCENARIO_KWARGS!r}))
driver = load_checkpoint({str(path)!r})
for batch in scenario.batches[{start}:]:
    driver.apply_batch(batch)
print(json.dumps({{
    "sparsifier": driver.sparsifier.edge_list(),
    "graph": driver.graph.edge_list(),
    "version": driver.latest_version,
    "history": [[getattr(r, name) for name in {HISTORY_FIELDS!r}] for r in driver.history],
    "kappa": driver.condition_number(dense_limit={DENSE_LIMIT}),
}}))
"""
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", child_script],
                          capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def as_json(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


# --------------------------------------------------------------------------- #
# The round-trip property, at several save points and resume contexts
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("save_after,resume_on", [
        (1, "serial"),
        (2, "threads"),
        (2, "processes"),
        (4, "processes"),
    ])
    def test_mid_stream_save_restore_continues_byte_identically(
            self, scenario, tmp_path, save_after, resume_on):
        """Saved after ``save_after`` batches and resumed in this thread
        (``serial``), on a worker thread (``threads``) or in a spawned
        interpreter (``processes``), the replay ends where the uninterrupted
        run does."""
        config = make_config()
        batches = scenario.batches
        assert save_after < len(batches)

        uninterrupted = start_driver(scenario, config)
        for batch in batches:
            uninterrupted.apply_batch(batch)
        expected = fingerprint(uninterrupted)

        interrupted = start_driver(scenario, config)
        for batch in batches[:save_after]:
            interrupted.apply_batch(batch)
        path = tmp_path / "ckpt"
        interrupted.save_checkpoint(path)

        if resume_on == "processes":
            assert replay_in_fresh_process(path, save_after) == as_json(expected)
            return

        def resume():
            restored = InGrassSparsifier.load_checkpoint(path)
            for batch in batches[save_after:]:
                restored.apply_batch(batch)
            return restored

        if resume_on == "threads":
            with ThreadPoolExecutor(max_workers=1) as pool:
                restored = pool.submit(resume).result()
        else:
            restored = resume()
        assert fingerprint(restored) == expected

    def test_restore_into_fresh_process(self, scenario, tmp_path):
        """Restore at the stream's midpoint in a *spawned* interpreter."""
        config = make_config()
        batches = scenario.batches
        half = len(batches) // 2

        uninterrupted = start_driver(scenario, config)
        for batch in batches:
            uninterrupted.apply_batch(batch)

        interrupted = start_driver(scenario, config)
        for batch in batches[:half]:
            interrupted.apply_batch(batch)
        path = tmp_path / "ckpt"
        interrupted.save_checkpoint(path)

        assert replay_in_fresh_process(path, half) == as_json(fingerprint(uninterrupted))


# --------------------------------------------------------------------------- #
# Format and manifest behaviour
# --------------------------------------------------------------------------- #
class TestFormat:
    @pytest.fixture()
    def saved(self, scenario, tmp_path):
        driver = start_driver(scenario, make_config())
        for batch in scenario.batches[:2]:
            driver.apply_batch(batch)
        path = tmp_path / "ckpt"
        save_checkpoint(driver, path)
        return driver, path

    def test_is_checkpoint_and_describe(self, saved, tmp_path):
        driver, path = saved
        assert is_checkpoint(path)
        assert not is_checkpoint(tmp_path / "nothing-here")
        info = describe_checkpoint(path)
        assert info["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert info["driver_class"] == "InGrassSparsifier"
        assert info["version"] == driver.latest_version

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent")

    def test_future_format_version_rejected(self, saved):
        _, path = saved
        manifest_path = Path(path) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        # A newer layout, and the older formats 1 to 7 (format 7 carried the
        # two configuration fields and the two hierarchy counters of the
        # inflate-and-rebuild mode, format 6
        # InGrassConfig.target_condition_number and format 5
        # InGrassConfig.filtering_level, all as below; format 4 overwrote its
        # arrays in place; 1 to 3 carried other fields this reader no longer
        # knows).
        manifest["config"]["hierarchy_mode"] = "maintain"
        manifest["config"]["resetup_after_removals"] = None
        manifest["hierarchy"]["noted_removals"] = 0
        manifest["hierarchy"]["inflation_ceiling"] = None
        manifest["config"]["target_condition_number"] = None
        manifest["config"]["filtering_level"] = manifest["filtering_level"]
        for version in (CHECKPOINT_FORMAT_VERSION + 1, 7, 6, 5, 4, 3, 2, 1):
            manifest["format_version"] = version
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(ValueError, match="format"):
                load_checkpoint(path)

    def test_readme_states_the_current_format_version(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        stated = re.findall(r"CHECKPOINT_FORMAT_VERSION = (\d+)", readme)
        assert stated and all(int(v) == CHECKPOINT_FORMAT_VERSION for v in stated)
        # Its list of rejected formats starts at the one before.
        assert re.search(rf"Format\s+{CHECKPOINT_FORMAT_VERSION - 1} \(", readme)

    def test_manifest_is_deterministic(self, scenario, tmp_path):
        """Same state → byte-identical manifest (no timestamps, sorted keys)."""
        driver = start_driver(scenario, make_config())
        driver.apply_batch(scenario.batches[0])
        texts = []
        for name in ("a", "b"):
            path = tmp_path / name
            save_checkpoint(driver, path)
            texts.append((Path(path) / "manifest.json").read_text())
        assert texts[0] == texts[1]

    def test_arrays_that_do_not_match_the_manifest_are_rejected(self, saved, scenario, tmp_path):
        """Each array is checked against its manifest record (dtype, shape,
        sha256): a foreign arrays file under the name the manifest gives, or
        a manifest record changed under its array, raises."""
        driver, path = saved
        driver.apply_batch(scenario.batches[2])
        other = tmp_path / "other"
        save_checkpoint(driver, other)
        manifest_path = Path(path) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        arrays_path = Path(path) / manifest["arrays_file"]
        genuine = arrays_path.read_bytes()
        (foreign,) = [name for name in os.listdir(other) if name.startswith("arrays-")]
        shutil.copyfile(other / foreign, arrays_path)
        with pytest.raises(ValueError, match="array '.+' does not match the manifest"):
            load_checkpoint(path)

        arrays_path.write_bytes(genuine)
        load_checkpoint(path)
        manifest["arrays"]["sp_ws"]["sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="array 'sp_ws' does not match the manifest"):
            load_checkpoint(path)

    def test_config_survives_without_deprecation_warning(self, saved, recwarn):
        driver, path = saved
        recwarn.clear()
        restored = load_checkpoint(path)
        deprecations = [w for w in recwarn if issubclass(w.category, DeprecationWarning)]
        assert not deprecations
        assert restored.config == driver.config


# --------------------------------------------------------------------------- #
# Crash safety: a save that dies at any write step
# --------------------------------------------------------------------------- #
class CrashAt:
    """Counts the filesystem writes of a save and fails the ``crash_at``-th
    one (a ``write`` first puts half its bytes on disk, like a torn write)."""

    STEPS = ("write", "fsync", "replace", "remove")

    def __init__(self, monkeypatch, crash_at=None):
        self.crash_at = crash_at
        self.calls = []
        for name in self.STEPS:
            monkeypatch.setattr(os, name, self._wrap(name, getattr(os, name)))

    def _wrap(self, name, real):
        def step(*args):
            self.calls.append(name)
            if len(self.calls) == self.crash_at:
                if name == "write":
                    real(args[0], bytes(args[1])[:max(1, len(args[1]) // 2)])
                raise OSError(f"simulated crash at step {self.crash_at} ({name})")
            return real(*args)
        return step


class TestCrashSafety:
    def test_a_save_that_dies_at_any_write_step_leaves_the_old_or_the_new_epoch(
            self, scenario, tmp_path, monkeypatch):
        driver = start_driver(scenario, make_config())
        for batch in scenario.batches[:3]:
            driver.apply_batch(batch)
        old = fingerprint(driver)
        old_dir = tmp_path / "old"
        save_checkpoint(driver, old_dir)
        for batch in scenario.batches[3:]:
            driver.apply_batch(batch)
        new = fingerprint(driver)
        assert new["version"] != old["version"]

        shutil.copytree(old_dir, tmp_path / "dry-run")
        with monkeypatch.context() as patch:
            dry_run = CrashAt(patch)
            save_checkpoint(driver, tmp_path / "dry-run")
        steps = dry_run.calls

        outcomes = []
        for crash_at in range(1, len(steps) + 1):
            path = tmp_path / f"crash-{crash_at}"
            shutil.copytree(old_dir, path)
            with monkeypatch.context() as patch:
                CrashAt(patch, crash_at)
                with pytest.raises(OSError, match="simulated crash"):
                    save_checkpoint(driver, path)
            restored = fingerprint(load_checkpoint(path))
            assert restored in (old, new), f"crash at step {crash_at} ({steps[crash_at - 1]})"
            outcomes.append(restored == new)
            # The next save completes and leaves one arrays file.
            save_checkpoint(driver, path)
            assert fingerprint(load_checkpoint(path)) == new
            assert len([name for name in os.listdir(path) if name.startswith("arrays-")]) == 1
        # Crashes before the manifest swap keep the old epoch, later ones the new.
        assert set(steps) >= {"write", "fsync", "replace", "remove"}
        assert outcomes[0] is False and outcomes[-1] is True
        assert outcomes == sorted(outcomes)

    def test_an_unreadable_arrays_file_names_the_checkpoint(self, scenario, tmp_path):
        driver = start_driver(scenario, make_config())
        driver.apply_batch(scenario.batches[0])
        path = tmp_path / "ckpt"
        save_checkpoint(driver, path)
        (arrays_file,) = [name for name in os.listdir(path) if name.startswith("arrays-")]
        with open(path / arrays_file, "r+b") as handle:
            handle.truncate(100)
        with pytest.raises(ValueError, match=f"checkpoint at {path}: arrays file .+ is unreadable"):
            load_checkpoint(path)


# --------------------------------------------------------------------------- #
# Service-level restore
# --------------------------------------------------------------------------- #
class TestServiceRestore:
    def test_service_resumes_at_last_epoch(self, scenario, tmp_path):
        service = SparsifierService(make_config())
        service.setup(scenario.graph, scenario.initial_sparsifier,
                      target_condition_number=scenario.initial_condition_number)
        for batch in scenario.batches[:3]:
            service.apply(batch)
        saved_version = service.latest_version
        path = tmp_path / "svc"
        service.save_checkpoint(path)

        restored = SparsifierService.restore(path)
        assert restored.latest_version == saved_version
        assert restored.driver.sparsifier.edge_list() == \
            service.driver.sparsifier.edge_list()
        # The restored service keeps serving: apply the next batch and the
        # version moves on from the saved epoch.
        restored.apply(scenario.batches[3])
        assert restored.latest_version > saved_version


# --------------------------------------------------------------------------- #
# CLI save / restore --replay
# --------------------------------------------------------------------------- #
class TestCli:
    def test_restore_replay_continues_the_saved_stream(self, tmp_path, monkeypatch):
        """``checkpoint save`` of N batches plus ``restore --replay M`` ends
        where an uninterrupted save of N + M batches of the same demo stream
        ends."""
        import repro.api
        from repro.cli import main

        restored = []

        def capture(path):
            driver = load_checkpoint(path)
            restored.append(driver)
            return driver

        monkeypatch.setattr(repro.api, "load_checkpoint", capture)
        short, long = str(tmp_path / "short"), str(tmp_path / "long")
        assert main(["checkpoint", "save", short, "--side", "8", "--batches", "3"]) == 0
        assert main(["checkpoint", "save", long, "--side", "8", "--batches", "5"]) == 0
        assert main(["checkpoint", "restore", short, "--replay", "2"]) == 0
        (replayed,) = restored
        uninterrupted = load_checkpoint(long)
        assert replayed.sparsifier.edge_list() == \
            uninterrupted.sparsifier.edge_list()
        assert replayed.graph == uninterrupted.graph
        assert replayed.latest_version == uninterrupted.latest_version

    def test_requests_past_the_demo_stream_exit_2(self, tmp_path, capsys):
        from repro.cli import DEMO_STREAM_BATCHES, main

        path = str(tmp_path / "ckpt")
        assert main(["checkpoint", "save", path, "--side", "8",
                     "--batches", str(DEMO_STREAM_BATCHES + 1)]) == 2
        assert not is_checkpoint(path)
        assert main(["checkpoint", "save", path, "--side", "8", "--batches", "2"]) == 0
        assert main(["checkpoint", "restore", path,
                     "--replay", str(DEMO_STREAM_BATCHES - 1)]) == 2
        assert f"holds {DEMO_STREAM_BATCHES} batches" in capsys.readouterr().err
