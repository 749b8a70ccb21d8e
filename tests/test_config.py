"""Config file format: round trips, strict keys and typed values."""

from dataclasses import fields

import pytest

from hypercf.config import (Config, ConfigError, format_config,
                            parse_config_text)


def non_default(value):
    """A value of the field's own type that differs from its default."""
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


def test_every_field_type_is_one_the_parser_reads():
    # a field's default type is what its text parses to; a bool field
    # would fall through to the string case
    assert {type(f.default) for f in fields(Config)} <= {int, float, str,
                                                         tuple}


def test_deleted_sum_switch_is_an_unknown_key():
    with pytest.raises(ConfigError, match="include_input_in_sum"):
        parse_config_text("include_input_in_sum = false\n")


@pytest.mark.parametrize("key, value", [
    ("data", "/tmp/run#1/x.tsv"), ("out", "runs\nd = 64"),
    ("data", " x.tsv"), ("out", "runs "), ("data", "a\rb")])
def test_value_the_text_format_cannot_hold_is_rejected_by_name(key, value):
    # parse_config_text cuts at '#', splits lines and strips values
    with pytest.raises(ConfigError, match=key):
        Config(**{key: value}).validate()


@pytest.mark.parametrize("key, value", [
    ("eval_every", 0), ("eval_every", -2), ("pairs_main", -3),
    ("pairs_sal", -1), ("patience", -1), ("init_scale", -0.1)])
def test_out_of_range_count_or_scale_is_rejected_by_name(key, value):
    with pytest.raises(ConfigError, match=key):
        Config(**{key: value}).validate()


@pytest.mark.parametrize("key", ["lr", "decay", "lambda1", "lambda2",
                                 "slope", "init_scale"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_is_rejected_by_name(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        parse_config_text(f"{key} = {value}\n").validate()


def test_negative_seed_is_rejected_by_name():
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1"):
        parse_config_text("seed = -1\n").validate()


@pytest.mark.parametrize("line", ["d = abc", "lr = fast", "epochs = 2.5"])
def test_non_numeric_value_is_rejected_by_name(line):
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"^{key}: "):
        parse_config_text(line + "\n")
