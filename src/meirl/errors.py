class ConfigError(ValueError):
    """Bad shapes, bad arguments, malformed configs or files."""


class ConvergenceError(RuntimeError):
    """A numerical solve or training run failed: it ran out of rounds or its values diverged."""
