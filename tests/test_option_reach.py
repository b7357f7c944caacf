"""Guard against configuration fields that only tests set.

A field of :class:`~repro.core.config.InGrassConfig`,
:class:`~repro.core.config.LRDConfig` or
:class:`~repro.sparsify.grass.GrassConfig` is *set* when production text
passes it by name: as the keyword of a call (``InGrassConfig(seed=1)``,
``replace(config, max_rounds=200)``) or as the string key of a dict literal
(perfbench's workload configs).  Production text is ``src/repro`` outside
the config classes' own bodies, plus ``perfbench/`` and ``.github/``; tests
and examples do not count.  A field nothing sets takes its default on every
production run, so it is a constant, not a setting: make it one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import fields
from pathlib import Path

from repro.core import InGrassConfig, LRDConfig
from repro.sparsify import GrassConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = (InGrassConfig, LRDConfig, GrassConfig)
CONFIG_NAMES = {config.__name__ for config in CONFIGS}
#: ``name=`` keywords and ``"name":`` keys in text that is not Python (the
#: workflows' shell lines and inline scripts).
TEXT_PATTERNS = (re.compile(r"\b(\w+)\s*=(?!=)"), re.compile(r"[\"'](\w+)[\"']\s*:"))


def _names_set_in_python(source: str) -> set:
    """Call keywords and dict-literal string keys, outside the config classes."""
    names = set()
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and top.name in CONFIG_NAMES:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
            elif isinstance(node, ast.Dict):
                names.update(key.value for key in node.keys
                             if isinstance(key, ast.Constant) and isinstance(key.value, str))
    return names


def names_set_in_production() -> set:
    names = set()
    for path in list((ROOT / "src" / "repro").rglob("*.py")) + list((ROOT / "perfbench").rglob("*.py")):
        names |= _names_set_in_python(path.read_text(encoding="utf-8"))
    for path in (ROOT / ".github").rglob("*"):
        if path.is_file() and path.suffix in (".yml", ".yaml"):
            text = path.read_text(encoding="utf-8")
            for pattern in TEXT_PATTERNS:
                names.update(pattern.findall(text))
    return names


def test_every_config_field_is_set_by_production_code():
    names = names_set_in_production()
    unset = sorted(f"{config.__name__}.{field.name}"
                   for config in CONFIGS for field in fields(config) if field.name not in names)
    assert not unset, ("only tests set these configuration fields; replace each with the constant "
                       f"every production run uses: {unset}")
