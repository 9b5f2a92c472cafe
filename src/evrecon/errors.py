"""Exception types shared across the package, and the one checked path
from a JSON object to a config dataclass."""

import dataclasses


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

    Keys that are not fields of `cls`, and fields without a default that
    are missing, raise ConfigError naming them and `source`.
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
    return cls(**data)
