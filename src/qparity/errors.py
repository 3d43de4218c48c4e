"""Exception types with CLI exit-code semantics.

ConfigError maps to exit code 2 (bad user input), PreconditionError and
its subclasses to exit code 3 (physically illegal simulation request).
"""


class ConfigError(ValueError):
    """A refused argument: a public function or constructor given a
    value out of range or non-finite, a count that is not an integer or
    a state of the wrong size; also a bad flag value or config file."""


class PreconditionError(ValueError):
    """A simulation operation was asked to do something its contract forbids."""


class ConditionViolation(PreconditionError):
    """A loss pattern destroys a logical qubit entirely (no photon left)."""
