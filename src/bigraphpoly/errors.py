"""Exception types shared across the package."""


class PolyParseError(ValueError):
    """Polynomial text rejected; carries the character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class LabelingError(ValueError):
    """A labeling is not a total injection into the naturals."""


class BudgetExceededError(RuntimeError):
    """Search budget ran out before the answer was certain; inconclusive."""


# Every search stops on its budget alone; perfbench/worker.py still imports
# this old name, which goes when the benchmark is brought up to date.
SizeGuardError = BudgetExceededError


class FileFormatError(ValueError):
    """A graph or net document failed to parse or validate."""
