"""Exception types shared across the package, and the short forms that error
text quotes values in."""

import reprlib
from math import log10


def _show(n):
    """n in decimal, or by its number of digits once that gets long, so
    error text stays short however large the values are."""
    if -10**15 < n < 10**15:
        return str(n)
    m = abs(n)
    digits = int(m.bit_length() * log10(2))
    if m >= 10**digits:
        digits += 1
    return f"a {'negative ' if n < 0 else ''}{digits}-digit number"


class _Abbreviator(reprlib.Repr):
    def repr_int(self, x, level):
        return _show(x)


# Error text quotes rejected values through this: containers to one level and
# a few items, strings to a few dozen characters and ints by _show.
_abbreviator = _Abbreviator()
_abbreviator.maxlevel = 1
_brief = _abbreviator.repr


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
