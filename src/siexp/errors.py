"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific one that applies.
"""


class SiexpError(Exception):
    """Base class for package errors."""


class ConfigError(SiexpError):
    """Scenario file is malformed, has unknown keys, or invalid values."""


class BudgetError(SiexpError):
    """A requested computation exceeds the configured state or grid budget."""


class PremiseViolationError(SiexpError):
    """A precondition of a fast path does not hold for the given instance."""


class EvaluatorMismatchError(SiexpError, ValueError):
    """A shared evaluator was built for another source, channel or rate step."""
