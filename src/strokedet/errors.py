"""Exception types shared across the pipeline, mapped to CLI exit codes."""

import numbers
from dataclasses import fields


class StrokedetError(Exception):
    """Base class; carries the CLI exit code."""

    exit_code = 1


class ConfigError(StrokedetError):
    """Invalid configuration: unknown keys, bad values, unknown architecture."""

    exit_code = 2


class DataError(StrokedetError):
    """Unusable input data: empty runs, malformed files, impossible splits."""

    exit_code = 3


class NumericError(StrokedetError):
    """Numeric failure: non-finite values during model evaluation or training."""

    exit_code = 4


def check_int_fields(config) -> None:
    """ConfigError unless each `int` field of the dataclass `config` holds an integer, not a bool."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
