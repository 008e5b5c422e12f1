"""Exception types shared across the pipeline."""


class InputError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 1)."""


class ConfigError(ValueError):
    """Invalid parameter combination (CLI exit code 2)."""

