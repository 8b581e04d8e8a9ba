"""Exception types shared across the library and the CLI.

The library raises `ValueError` only to reject its arguments (CLI exit code 2)
and `NumericalError` when it produces unusable numbers (exit code 3).
"""


class NumericalError(RuntimeError):
    """Raised when an integration or root search produces unusable numbers
    (non-finite state, undetectable tangential zero, ...)."""


class ConfigError(ValueError):
    """Raised for invalid experiment configurations (CLI exit code 2)."""
