"""Exception types shared across the package, the one checked path from
a JSON object to a config dataclass, and the one check of a config's
single-field rules, declared on its fields with `bounded`."""

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


def bounded(lo=None, hi=None, *, above=None, choices=None, **field_args):
    """A dataclass field that `check_fields` holds to lo <= value <= hi,
    value > above and value in choices (each rule only when given);
    `field_args` (default=...) go to `dataclasses.field`."""
    return dataclasses.field(metadata=dict(lo=lo, hi=hi, above=above, choices=choices),
                             **field_args)


_ECHO = 80  # characters of an offending value's repr that a message echoes


def echo(value):
    """repr(value) for an error message, cut to _ECHO characters with an
    ellipsis, so a long list or deep object is named by its start."""
    got = repr(value)
    return got if len(got) <= _ECHO else got[:_ECHO - 3] + "..."


def check_fields(config):
    """Raise ConfigError naming the first field of the dataclass `config`
    whose value breaks a rule of that field alone: its declared type, a
    finite value for a float, and the bounds and choices of `bounded`.

    A float field also takes an integer; a bool is neither an int nor a
    float, even though Python counts it as one. A field whose default is
    None also takes None.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        rule = None if value is None and f.default is None else _broken_rule(f, value)
        if rule is not None:
            raise ConfigError(f"{type(config).__name__}.{f.name} must be {rule}, "
                              f"got {echo(value)}")


def _broken_rule(f, value):
    """The rule of field `f` that `value` breaks, as the words after "must
    be", or None."""
    kind = {int: numbers.Integral, float: numbers.Real}.get(f.type, f.type)
    if not isinstance(value, kind) or (isinstance(value, bool) and f.type is not bool):
        return f.type.__name__
    if f.type is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            return "finite"
    lo, hi, above, choices = (f.metadata.get(k) for k in ("lo", "hi", "above", "choices"))
    if lo is not None and value < lo:
        return f">= {lo}"
    if above is not None and not value > above:
        return f"> {above}"
    if hi is not None and value > hi:
        return f"at most {hi}"
    if choices is not None and value not in choices:
        return f"one of {'/'.join(choices)}"
    return None
