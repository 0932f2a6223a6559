"""The shipped questionnaire schema and schema file round-trips."""

from __future__ import annotations

import json

import pytest

from riskminer.errors import ConfigError
from riskminer.schema import FeatureSpec, Schema, default_schema, load_schema, save_schema, schema_from_dict

EXPECTED_ORDER = [
    "weak-password",
    "social-media-user",
    "disclose-sentiment-on-social-media",
    "victimized-by-blackmailing",
    "maintained-privacy-on-social-media",
    "accessing-online-account-using-several-devices",
    "sharing-private-information-on-the-internet",
    "receive-phishing-email",
    "shared-email-access",
    "permitted-ingress-in-email",
    "clicked-on-spam-email-links",
    "online-products-purchaser",
    "lost-money-by-purchasing-online-commodities",
    "compulsive-buyer",
    "installed-malicious-software",
    "shared-private-devices",
    "download-unauthorized-software",
    "accessed-VPN",
    "stored-credentials-on-browsers",
    "used-virus-infected-pen-drive",
    "devices-keep-updated",
    "age-range",
    "gender",
    "shared-internet-account-access",
    "knowledge-about-cybercrime",
    "aware-about-cybercrime",
]


def test_default_schema_structure():
    schema = default_schema()
    assert list(schema.feature_names) == EXPECTED_ORDER
    assert schema.goal_name == "victim"
    assert len(schema.features) == 26
    kinds = {f.name: f.kind for f in schema.features}
    assert kinds["age-range"] == "discrete"
    assert kinds["knowledge-about-cybercrime"] == "ordinal"
    assert sum(1 for f in schema.features if f.kind == "binary") == 24
    for f in schema.features:
        if f.kind == "binary":
            assert f.values == (0, 1)
        else:
            assert f.values == (1, 2, 3)


def test_schema_file_round_trip(tmp_path):
    schema = default_schema()
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    assert load_schema(path) == schema


def test_schema_validation():
    with pytest.raises(ConfigError):
        FeatureSpec("x", "binary", (1, 2))
    with pytest.raises(ConfigError):
        FeatureSpec("x", "nope", (0, 1))
    with pytest.raises(ConfigError):
        FeatureSpec("x", "discrete", ())
    with pytest.raises(ConfigError):
        Schema(features=(FeatureSpec("a", "binary", (0, 1)), FeatureSpec("a", "binary", (0, 1))))
    with pytest.raises(ConfigError):
        Schema(features=(FeatureSpec("victim", "binary", (0, 1)),))


def _binary(**changes):
    return {"features": [{"name": "a", "kind": "binary", "values": [0, 1], **changes}], "goal": "victim"}


@pytest.mark.parametrize("doc", [
    _binary(values=[0, 1.7]),
    _binary(values=["0", "1"]),
    _binary(values=[0, True]),
    _binary(values="01"),
    _binary(name=5),
    _binary(note="x"),
    {**_binary(), "goal": 5},
    {**_binary(), "version": 1},
    {"features": ["a"]},
    [],
])
def test_malformed_schema_documents_are_config_errors(doc, tmp_path):
    with pytest.raises(ConfigError):
        schema_from_dict(doc)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_schema(path)


def test_a_schema_file_that_is_not_json_is_a_config_error(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_schema(path)
