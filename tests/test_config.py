"""Config file format: round trips, strict keys and typed values."""

from dataclasses import fields

import pytest

from hypercf.config import (Config, ConfigError, format_config,
                            parse_config_text)


def non_default(value):
    """A value of the field's own type that differs from its default."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 + 3
    if isinstance(value, tuple):
        return ("hyper", "sal")
    return "runs/other"


def test_every_field_round_trips_with_a_non_default_value():
    base = Config()
    changed = Config(**{f.name: non_default(getattr(base, f.name))
                        for f in fields(Config)})
    for f in fields(Config):
        assert getattr(changed, f.name) != getattr(base, f.name), f.name
    back = parse_config_text(format_config(changed))
    assert back == changed


def test_removed_key_is_rejected_by_name():
    with pytest.raises(ConfigError, match="gcn_residual"):
        parse_config_text("d = 16\ngcn_residual = false\n")


def test_bad_boolean_is_rejected():
    with pytest.raises(ConfigError, match="include_input_in_sum"):
        parse_config_text("include_input_in_sum = maybe\n")


@pytest.mark.parametrize("key, value", [
    ("data", "/tmp/run#1/x.tsv"), ("out", "runs\nd = 64"),
    ("data", " x.tsv"), ("out", "runs "), ("data", "a\rb")])
def test_value_the_text_format_cannot_hold_is_rejected_by_name(key, value):
    # parse_config_text cuts at '#', splits lines and strips values
    with pytest.raises(ConfigError, match=key):
        Config(**{key: value}).validate()
