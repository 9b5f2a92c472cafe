"""Exception types shared across the package, and the one checked path
from a JSON object to a config dataclass."""

import dataclasses
import math
import numbers


class EvreconError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EvreconError):
    """Malformed input data (carries a line number when known)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OrderingError(ParseError):
    """Event timestamps decreased within a stream."""


class ConfigError(EvreconError):
    """Invalid configuration value (non-positive window, bad channel count, ...)."""


class ShapeError(EvreconError):
    """Operands with incompatible shapes."""


class ContractError(EvreconError):
    """An operation was called outside its contract (non-scalar loss, AMP step without spikes, ...)."""


class DivergenceError(EvreconError):
    """Training produced NaN/inf loss."""


def config_from_dict(cls, data, source):
    """Build the dataclass `cls` from a JSON object read from `source`.

    Keys that are not fields of `cls`, fields without a default that are
    missing, and values that `cls` rejects raise ConfigError naming them
    and `source`.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: expected a JSON object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{source}: unknown {cls.__name__} key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields if f.name not in data
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{source}: missing {cls.__name__} key(s): {', '.join(missing)}")
    try:
        return cls(**data)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def check_field_types(config):
    """Raise ConfigError naming the first field of the dataclass `config`
    whose value is not of its declared type (int, float, bool or str).

    A float field also takes an integer; a bool is neither an int nor a
    float, even though Python counts it as one. A field whose default is
    None also takes None.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if value is None and f.default is None:
            ok = True
        elif f.type is float:
            ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        elif f.type is int:
            ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        else:
            ok = isinstance(value, f.type)
        if not ok:
            raise ConfigError(f"{type(config).__name__}.{f.name} must be "
                              f"{f.type.__name__}, got {value!r}")


def check_finite(config, *names):
    """Raise ConfigError naming the first of the number fields `names` of
    the dataclass `config` that is NaN, infinite or too large for a float."""
    for name in names:
        value = getattr(config, name)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ConfigError(f"{type(config).__name__}.{name} must be finite, got {value!r}")
