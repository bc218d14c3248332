"""Exception hierarchy shared across the toolkit.

Each concrete class carries the CLI exit code it maps to: ConfigError -> 2,
FormatError -> 3, DataError -> 4. Everything else is a bug and propagates.
"""


class ToolkitError(Exception):
    """Base class for expected, user-facing failures."""


class ConfigError(ToolkitError):
    """Invalid configuration: unknown key, bad value, missing required setting."""
    exit_code = 2


class FormatError(ToolkitError):
    """Malformed or unsupported input file (WAV, stack, checkpoint, manifest, trials)."""
    exit_code = 3


class DataError(ToolkitError):
    """Numerically degenerate or infeasible data (zero-energy noise, single-class labels, ...)."""
    exit_code = 4
