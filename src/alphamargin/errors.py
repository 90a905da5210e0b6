"""Exception types shared across the package."""


class SolverError(RuntimeError):
    """Raised when the tau solve cannot bracket or converge to the root."""


class DataFormatError(ValueError):
    """Raised on corrupt, truncated or version-mismatched data files."""


class UnattainableFARError(ValueError):
    """Raised when a FAR target is below the resolution of the impostor set."""
