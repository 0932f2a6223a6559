"""Survey schema: feature names, kinds, and legal integer codes.

The shipped default (``default_schema``) describes the 26 questionnaire
attributes plus the binary "victim" goal column. All features carry small
integer codes: binary answers are {0, 1}, the age bucket and the cybercrime
knowledge scale are {1, 2, 3}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError, check_ints
from .files import read_json, write_text

KINDS = ("binary", "discrete", "ordinal")


@dataclass(frozen=True)
class FeatureSpec:
    """One survey attribute: its name, kind, and ordered legal codes."""

    name: str
    kind: str
    values: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if not self.values:
            raise ConfigError(f"feature {self.name!r}: empty value set")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"feature {self.name!r}: duplicate values")
        if self.kind == "binary" and tuple(sorted(self.values)) != (0, 1):
            raise ConfigError(f"feature {self.name!r}: binary features must use codes {{0, 1}}")


@dataclass(frozen=True)
class Schema:
    """An ordered feature list plus the goal column name.

    Immutable after construction; safe to share across threads.
    """

    features: tuple[FeatureSpec, ...]
    goal_name: str = "victim"

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ConfigError("feature names must be unique")
        if self.goal_name in names:
            raise ConfigError(f"goal {self.goal_name!r} must not appear among the features")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index_of(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise KeyError(name)

    def feature(self, name: str) -> FeatureSpec:
        return self.features[self.index_of(name)]

    def __contains__(self, name: str) -> bool:
        return any(f.name == name for f in self.features)


def schema_from_dict(doc: dict) -> Schema:
    """The schema that *doc* describes: an object of ``features`` (objects of a
    string ``name``, a ``kind`` and integer ``values``) and a string ``goal``."""
    try:
        if set(doc) - {"features", "goal"} or not isinstance(doc.get("goal", ""), str):
            raise ConfigError(f"a schema takes only features and a string goal, got keys {sorted(doc)}")
        feats = []
        for f in doc["features"]:
            if set(f) - {"name", "kind", "values"} or not isinstance(f["name"], str):
                raise ConfigError(f"a schema feature takes only a string name, a kind and values, got {f!r}")
            check_ints(None, **{f"feature {f['name']!r} value {i}": v for i, v in enumerate(f["values"])})
            feats.append(FeatureSpec(name=f["name"], kind=f["kind"], values=tuple(f["values"])))
        return Schema(features=tuple(feats), goal_name=doc.get("goal", "victim"))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed schema document: {exc}") from exc


def schema_to_dict(schema: Schema) -> dict:
    return {
        "features": [
            {"name": f.name, "kind": f.kind, "values": list(f.values)} for f in schema.features
        ],
        "goal": schema.goal_name,
    }


def load_schema(path) -> Schema:
    """Load a schema from a JSON file ({features: [{name, kind, values}], goal})."""
    return schema_from_dict(read_json(path, "schema"))


def save_schema(schema: Schema, path) -> None:
    write_text(path, json.dumps(schema_to_dict(schema), indent=2) + "\n")


def default_schema() -> Schema:
    """The shipped 26-attribute questionnaire schema with goal "victim"."""
    return load_schema(resources.files("riskminer.resources") / "schema.json")
