"""Shared exception types.

Every raise in the package goes through one of these (or builtin
OverflowError for certainty equivalents whose shifted computation still
leaves the representable range), so callers can branch on failure modes
without string matching.  The five refusals (ParameterError, DomainError,
ScheduleError, PreconditionError, QuadratureError) share ArgumentError,
whose ``argument`` names the argument at fault the way the caller spells
it: ``sigma``, ``shocks[1]``, ``admissible[0]``, ``schedule.initial_value``
(a field of an argument), or None where no one argument is at fault.
"""

import operator


class ArgumentError(Exception):
    """A library rule refused a call; ``argument`` names the argument at fault, or is None."""

    def __init__(self, message: str, argument=None):
        super().__init__(message)
        self.argument = argument


class DomainError(ArgumentError, ValueError):
    """Argument lies outside the finiteness domain of a cumulant or price map."""


class NonDifferentiableError(DomainError):
    """Derivative requested at a point where the cumulant has none."""


class ParameterError(ArgumentError, ValueError):
    """Model or agent parameters violate their constraints."""


class ScheduleError(ArgumentError, ValueError):
    """Endowment shock schedule is inconsistent with itself or with a grid."""


class QuadratureError(ArgumentError, ArithmeticError):
    """Gaussian quadrature produced a non-finite node value or weight sum."""


class NoRootError(RuntimeError):
    """Bracketing root search found no sign change (completeness failure)."""


class PreconditionError(ArgumentError, ValueError):
    """A documented operation precondition failed at call time."""


class ConfigError(ValueError):
    """Run configuration is malformed; carries the offending field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def _whole_number(value, argument: str, least: int = 0) -> int:
    """``value`` as an int >= least: whatever ``operator.index`` takes except a bool."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ParameterError(f"{argument} must be an integer, got {value!r}", argument)
    value = operator.index(value)
    if value < least:
        raise ParameterError(f"{argument} must be >= {least}, got {value}", argument)
    return value
