"""Exception types shared across the package."""


class PolyParseError(ValueError):
    """Polynomial text rejected; carries the character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class LabelingError(ValueError):
    """A labeling is not a total injection into the naturals."""


class SizeGuardError(RuntimeError):
    """Input exceeds the guard of an intentionally brute-force search."""


class BudgetExceededError(RuntimeError):
    """Search budget ran out before the answer was certain; inconclusive."""


class FileFormatError(ValueError):
    """A graph or net document failed to parse or validate."""
