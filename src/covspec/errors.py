"""Exception and warning types shared across the package."""


class CovspecError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CovspecError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PanelError(CovspecError):
    """Invalid panel content (duplicate dates, missing cells, bad domain)."""


class InsufficientDataError(CovspecError):
    """Not enough history to honor the request."""


class ParameterError(CovspecError):
    """Parameter outside its documented domain."""


class ContractViolationError(CovspecError):
    """A caller violated an operation precondition."""


class NumericalError(CovspecError):
    """A numerical routine failed to converge."""


class DegenerateAssetError(CovspecError):
    """An asset's variance fell below the floor during normalization."""


class DegenerateSeriesError(CovspecError):
    """A matrix series is constant, so its lagged correlation is undefined."""


class FitError(NumericalError):
    """Nonlinear fit failed; carries the best iterate and its residual."""

    def __init__(self, message: str, best_params=None, residual=None):
        self.best_params = best_params
        self.residual = residual
        super().__init__(message)


class ConfigError(CovspecError):
    """Invalid run configuration; carries every collected error message."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class AnalysisError(CovspecError):
    """An analysis stage failed; message is prefixed with the stage name."""


class KernelClippingWarning(UserWarning):
    """Raw long-memory weights hit zero inside the window and were clipped."""
