"""Exception types with CLI exit-code semantics, and the input rule.

ConfigError maps to exit code 2 (bad user input), PreconditionError and
its subclasses to exit code 3 (physically illegal simulation request).

Every count, qubit index and probability a public function takes goes
through one of the two checks here: :func:`_check_count` for integers
in a range, :func:`_check_unit` for probabilities in [0, 1].  Both raise
ConfigError.
"""

from operator import index


class ConfigError(ValueError):
    """A refused argument: a public function or constructor given a
    value out of range or non-finite, a count that is not an integer or
    a state of the wrong size; also a bad flag value or config file."""


class PreconditionError(ValueError):
    """A simulation operation was asked to do something its contract forbids."""


class ConditionViolation(PreconditionError):
    """A loss pattern destroys a logical qubit entirely (no photon left)."""


def _check_unit(name: str, value) -> None:
    """A probability must lie in [0, 1]; nan is refused too."""
    if not (0.0 <= value <= 1.0):
        raise ConfigError(f"{name} {value} out of [0, 1]")


def _check_count(name: str, value, least: int = 1, most=None) -> int:
    """A count or index must be an integer by the ``operator.index`` rule
    (its type has ``__index__``), not a bool, within ``least``..``most``
    (unbounded above when ``most`` is None): a float is refused even
    when whole, and True does not count as 1.  Returns the value as a
    Python int, so that a NumPy integer count cannot overflow later."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = index(value)
    if most is None:
        if value < least:
            raise ConfigError(f"need {name} >= {least}")
    elif not least <= value <= most:
        raise ConfigError(f"{name} {value} outside {least}..{most}")
    return value
