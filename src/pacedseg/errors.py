"""Exception types shared across the package."""


class FormatError(ValueError):
    """A binary file (volume or checkpoint) is malformed or truncated."""


class ConfigError(ValueError):
    """A config file or CLI argument set cannot be turned into a valid run."""


class TrainingAbort(RuntimeError):
    """Training hit a non-finite loss or gradient; carries a diagnostic dump."""
