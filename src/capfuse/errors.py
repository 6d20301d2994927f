"""Exception types shared across the package, and the checks of integer
and real config values."""

from numbers import Integral, Real


class ShapeError(ValueError):
    """Tensor shapes do not conform for the requested operation."""


class ConfigError(ValueError):
    """A configuration value is out of its legal range or inconsistent."""


class InputError(ValueError):
    """Caller-supplied data violates an operation's preconditions."""


class StateError(RuntimeError):
    """An object is in the wrong state for the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced or encountered a non-finite value."""


class ParseError(ValueError):
    """A serialized artifact could not be parsed."""


class CheckpointError(RuntimeError):
    """A checkpoint failed validation (version, checksum, or flags)."""


def check_int(name: str, value, least: int):
    """Raise ConfigError unless `value` is an integer (numpy's too) of at
    least `least`."""
    if not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value!r}")


def check_real(name: str, value, rule: str, holds):
    """Raise ConfigError unless `value` is a real number (numpy's too) for
    which holds(value) is true; `rule` says what holds asks, and a NaN fails
    every comparison in it."""
    if not isinstance(value, Real) or not holds(value):
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
