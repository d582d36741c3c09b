"""Names that must be declared in two places agree.

`config` imports nothing from the package (importing `experiments` would
be a cycle, importing `sde` would pull NumPy into config parsing), so its
kinds and schemes are restated where they run; and docs/formats.md
restates the config keys and the manifest fields.
"""

import json
import re
from pathlib import Path

from stoflow import config, experiments, sde
from stoflow.config import ExperimentConfig
from stoflow.experiments import RunManifest

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
TYPE_NAMES = {int: "int", float: "float", str: "string"}


def doc_table(heading: str) -> list:
    """The body rows of the first table under `heading` in docs/formats.md,
    each a list of its cells, a `\\|` inside a cell kept."""
    section = FORMATS.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    lines = [ln for ln in section.split("\n## ", 1)[0].splitlines() if ln.startswith("|")]
    return [[c.strip() for c in re.split(r"(?<!\\)\|", ln)[1:-1]] for ln in lines[2:]]


def test_config_kinds_are_the_runners():
    assert set(config.KINDS) == set(experiments._RUNNERS)


def test_config_schemes_are_the_steppers():
    assert set(config.SCHEMES) == set(sde._STEPPERS)


def test_config_table_lists_every_key_with_its_type_and_default():
    defaults = dict(line.split(" = ", 1) for line in ExperimentConfig().to_text().splitlines())
    documented = {}
    for keys, typ, default, _ in doc_table("## Experiment config"):
        for key, value in zip(keys.split(", "), default.split(", "), strict=True):
            documented[key.strip("`")] = (typ, value.strip("`"))
    expected = {key: (TYPE_NAMES[typ], "(required)" if key == "kind" else defaults[key])
                for key, (_, typ) in config._KEYMAP.items()}
    assert documented == expected


def test_manifest_table_lists_every_json_key():
    manifest = RunManifest(config_hash="", code_version="", kind="", seeds=[],
                           wall_clock_s=0.0, acceptance={}, files=[])
    documented = {row[0].strip("`") for row in doc_table("## `manifest.json`")}
    assert documented == set(json.loads(manifest.to_json()))
