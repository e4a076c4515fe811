"""The config document of `--config` files, `--print-config`, the run hash
and checkpoint headers, derived from the fields of the config dataclasses:
one key per field (`metadata["key"]` renames one), a nested dataclass as a
section and an `IrrepLayout` as its list of multiplicities. `load_json`
reads both kinds of document.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .datasplit import DEFAULT_COMPOUND_THRESHOLD, DEFAULT_PROTEIN_THRESHOLD
from .equinet import IrrepLayout, ModelConfig
from .errors import ValidationError
from .geograph import CutoffConfig
from .physscore import VinaWeights
from .train import TrainConfig


@dataclass(frozen=True)
class FusionConfig:
    """Weights of the physics + upstream-confidence fusion in `rerank`."""
    lam: float = field(default=1.0, metadata={"key": "lambda"})
    alpha: float = 1.0


@dataclass(frozen=True)
class SplitConfig:
    """Similarity thresholds of the cluster split."""
    compound_threshold: float = DEFAULT_COMPOUND_THRESHOLD
    protein_threshold: float = DEFAULT_PROTEIN_THRESHOLD


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one invocation."""
    cutoffs: CutoffConfig = field(default_factory=CutoffConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    vina: VinaWeights = field(default_factory=VinaWeights)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    seed: int = 0

    def to_dict(self) -> dict:
        return config_doc(self)

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def config_doc(config) -> dict:
    """The document of a config dataclass, one key per field."""
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, IrrepLayout):
            value = list(value.muls)
        elif is_dataclass(value):
            value = config_doc(value)
        doc[f.metadata.get("key", f.name)] = value
    return doc


def load_json(text: str, where: str):
    """Parse a JSON document, rejecting the constants NaN, Infinity and
    -Infinity that Python's json module accepts but JSON does not have."""
    def reject(name):
        raise ValidationError(f"{where}: {name} is not a JSON number")
    return json.loads(text, parse_constant=reject)


def _is_number(v) -> bool:
    return type(v) is int or (type(v) is float and math.isfinite(v))


# field type -> (test of the value, what it wants); a field of any other
# type is a nested section. JSON values have exact Python types, so
# `type(v) is int` also keeps a bool from passing as a number. An int is
# accepted where a float is expected and kept as given: a document hashes
# the same however its numbers are resolved. A float must be finite, which
# also stops a NaN or infinite flag value (argparse's `float` takes both).
_VALUE_TYPES = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (_is_number, "a number"),
    float | None: (lambda v: v is None or _is_number(v), "a number or null"),
    str: (lambda v: type(v) is str, "a string"),
    IrrepLayout: (lambda v: type(v) is list and all(type(m) is int for m in v),
                  "a list of integers"),
}


def build_config(cls, doc, path: tuple[str, ...] = ()):
    """Build config dataclass `cls` from one document section.

    Keys left out take the field defaults, so derived defaults (such as
    `rbf_nu_max`) follow the keys given. An unknown key, or a value whose
    JSON type does not fit its field, raises a one-line `ValidationError`
    naming `section.key`.
    """
    where = f"config {'.'.join(path)!r}" if path else "config"
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: must be a JSON object, got {type(doc).__name__}")
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = sorted(set(doc) - set(by_key))
    if unknown:
        raise ValidationError(f"{where}: unknown key {unknown[0]!r}, allowed {sorted(by_key)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in doc.items():
        name, hint = by_key[key].name, hints[by_key[key].name]
        if hint not in _VALUE_TYPES:
            kwargs[name] = build_config(hint, value, path + (key,))
            continue
        accepts, wanted = _VALUE_TYPES[hint]
        if not accepts(value):
            raise ValidationError(f"config {'.'.join(path + (key,))!r}: must be {wanted}, "
                                  f"got {json.dumps(value)}")
        kwargs[name] = IrrepLayout(tuple(value)) if hint is IrrepLayout else value
    return cls(**kwargs)
