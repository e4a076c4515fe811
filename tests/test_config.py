import json
import os
import re

import pytest

from cpi3d.cli import _resolve_config, build_parser
from cpi3d.config import RunConfig, build_config
from cpi3d.errors import ValidationError
from cpi3d.geograph import CutoffConfig

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _resolve(tmp_path, doc, flags=()):
    argv = ["train", "--manifest", "x", "--out", "y", *flags]
    if doc is not None:
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        argv += ["--config", str(config)]
    return _resolve_config(build_parser().parse_args(argv))


@pytest.mark.parametrize("doc,expected", [
    (None, "0a6955b0c4d4"),
    ({"cutoffs": {"pp": 20}}, "25054a1eb0ea"),
    ({"train": {"learning_rate": 1}, "fusion": {"lambda": 2}}, "c2708bab496f"),
    ({"model": {"layout": [4, 2, 1]}, "seed": 3}, "d14cbe8b4f95"),
])
def test_config_hash_pinned(tmp_path, doc, expected):
    flags = () if doc is None else ("--seed", "5", "--lr", "0.01")
    assert _resolve(tmp_path, doc, flags).hash() == expected


def test_seed_flag_sets_both_seeds_file_seed_only_the_top_level(tmp_path):
    from_file = _resolve(tmp_path, {"seed": 3})
    assert (from_file.seed, from_file.train.seed) == (3, 0)
    from_flag = _resolve(tmp_path, {"seed": 3}, ("--seed", "5"))
    assert (from_flag.seed, from_flag.train.seed) == (5, 5)


def test_value_type_rule():
    # an int where a float is expected is accepted and kept as given
    cfg = build_config(RunConfig, {"cutoffs": {"pp": 20}, "fusion": {"lambda": 2}})
    assert cfg.to_dict()["cutoffs"]["pp"] == 20 and type(cfg.cutoffs.pp) is int
    assert type(cfg.fusion.lam) is int
    # each section is built from its own keys: derived defaults follow them
    assert cfg.cutoffs.rbf_nu_max == 20
    # null only for `float | None` fields
    assert build_config(CutoffConfig, {"rbf_gamma": None}) == CutoffConfig()
    with pytest.raises(ValidationError, match="'cutoffs.pp': must be a number, got null"):
        build_config(RunConfig, {"cutoffs": {"pp": None}})
    # a bool is never a number
    with pytest.raises(ValidationError, match="'train.batch_size': must be an integer"):
        build_config(RunConfig, {"train": {"batch_size": True}})


def test_document_round_trips():
    cfg = build_config(RunConfig, {"model": {"layout": [4, 2, 1]}, "split":
                                   {"protein_threshold": 0.3}, "seed": 2})
    assert build_config(RunConfig, cfg.to_dict()) == cfg


def test_readme_config_block_matches_schema():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Configuration file", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    documented = json.loads(block)
    schema = RunConfig().to_dict()
    assert sorted(documented) == sorted(schema)
    for key, value in schema.items():
        if isinstance(value, dict):
            assert sorted(documented[key]) == sorted(value), key
