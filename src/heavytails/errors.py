"""Exception taxonomy.

Invalid arguments (bad numbers, malformed atom lists) raise InvalidInput.
Structurally valid requests that fall outside an operation's hypotheses
(an expected-count denominator for an infinite-mean counting law, S*
diagnostics on an infinite-mean law) raise AssumptionViolated, so callers
can tell user error from model error. A simulation worker process that dies
raises WorkerCrashed, the one error that is not the caller's input.
"""


class HeavyTailsError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(HeavyTailsError, ValueError):
    """An argument is outside its documented domain."""


class AssumptionViolated(HeavyTailsError):
    """The model is valid but violates the hypotheses of the requested operation."""


class ModelConfigError(HeavyTailsError):
    """Model and quantity do not fit together (missing tau, mismatched marginals)."""


class ResourceLimit(HeavyTailsError):
    """A hard cap (atom count) would be exceeded; refine parameters instead."""


class ConfigError(HeavyTailsError):
    """A config file or CLI invocation violates the schema."""


class WorkerCrashed(HeavyTailsError):
    """A simulation worker process died before returning its blocks."""
