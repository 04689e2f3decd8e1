"""Exception types shared across the package."""

from __future__ import annotations


class InputDataError(ValueError):
    """Input data that cannot be analysed: malformed or empty."""


class FormatError(InputDataError):
    """Malformed input data; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyDatasetError(InputDataError):
    """Input contained no case records."""


class TableTooLargeError(ValueError):
    """The fit's three pair tables would need more cells than it allows."""


class NotConvergedError(RuntimeError):
    """Iterative fit stopped before reaching the requested tolerance."""

    def __init__(self, max_margin_error: float, iterations: int):
        super().__init__(
            f"fit did not converge after {iterations} iterations "
            f"(max margin error {max_margin_error:.3e})"
        )
        self.max_margin_error = max_margin_error
        self.iterations = iterations
