"""Tests for the ``repro.api`` facade and the unified ``repro`` CLI."""

from __future__ import annotations

import pytest

import repro
import repro.api as api
from repro import cli
from repro.core.incremental import InGrassSparsifier


class TestApiFacade:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.__all__ lists missing {name}"

    def test_top_level_package_exports_service_layer(self):
        for name in ("SparsifierService", "SparsifierSnapshot",
                     "FrozenGraph", "FrozenGraphError"):
            assert name in repro.__all__
            assert hasattr(repro, name)
            assert getattr(repro, name) is getattr(api, name)

    def test_factory_routes_on_config(self):
        assert type(api.Sparsifier(None)) is InGrassSparsifier
        config = api.InGrassConfig(kappa_guard_factor=1.8)
        driver = api.Sparsifier(config)
        assert type(driver) is InGrassSparsifier
        assert driver.config is config

    def test_facade_is_importable_in_one_line(self):
        # The documented quickstart import must keep working verbatim.
        from repro.api import (  # noqa: F401
            InGrassConfig,
            Sparsifier,
            SparsifierService,
            SparsifierSnapshot,
        )

    def test_facade_exports_the_serving_layer(self):
        for name in ("serve", "connect", "ServerConfig", "SparsifierHTTPServer",
                     "SparsifierClient", "ServerRequestError"):
            assert name in api.__all__
            assert hasattr(api, name)
        from repro.server import connect, serve

        assert api.serve is serve
        assert api.connect is connect


class TestUnifiedCli:
    def test_bench_list(self, capsys):
        assert cli.main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("compare", "churn", "soak"):
            assert name in out

    def test_bench_registry_covers_every_bench_module(self):
        import pathlib

        import repro.bench as bench

        bench_dir = pathlib.Path(bench.__file__).parent
        runnable = set()
        for module in bench_dir.glob("*.py"):
            if module.name.startswith("_"):
                continue
            if "\ndef main(" in module.read_text():
                runnable.add(f"repro.bench.{module.stem}")
        assert runnable == set(cli._BENCH_MODULES.values())

    def test_bench_requires_a_name(self, capsys):
        assert cli.main(["bench"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_bench_rejects_unknown_name(self, capsys):
        assert cli.main(["bench", "nonsense"]) == 2
        assert "unknown bench" in capsys.readouterr().err

    def test_bench_compare_help_dispatches(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bench", "compare", "--help"])
        assert exit_info.value.code == 0
        assert "--workload" in capsys.readouterr().out  # compare's own help, forwarded intact

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_no_args_prints_help(self, capsys):
        assert cli.main([]) == 0
        out = capsys.readouterr().out
        for command in ("bench", "serve", "checkpoint"):
            assert command in out
        assert "serve-demo" not in out

    def test_serve_subcommand_in_help_and_validates_backend(self, capsys):
        assert cli.main([]) == 0
        assert "HTTP server over a SparsifierService" in capsys.readouterr().out
        # A bad server setting must fail in milliseconds, before any setup
        # work, as a usage error.
        for flag, field in (("--queue-bound", "queue_bound"), ("--request-timeout", "request_timeout")):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["serve", flag, "0"])
            assert excinfo.value.code == 2
            assert field in capsys.readouterr().err

    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401  (must import without running)
