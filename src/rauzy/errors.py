"""Exception types shared across the toolkit."""


class RauzyError(Exception):
    """Base class for all toolkit-specific errors."""


class NotTwoToOne(RauzyError):
    """A symbol does not appear exactly twice across the two rows."""


class NotReduced(RauzyError):
    """Rows are valid but not in reduced (first-occurrence) numbering."""


class EmptyRow(RauzyError):
    """A table row is empty or missing."""


class DimensionMismatch(RauzyError):
    """A vector's length does not match the number of symbols."""


class InvalidSuspension(RauzyError):
    """A suspension vector violates one of the defining conditions."""


class DegeneratePolygon(InvalidSuspension):
    """The suspension polygon is not embedded (broken lines touch or cross)."""


class Reducible(RauzyError):
    """Operation requires an irreducible (generalized) permutation."""


class ReducibleSeed(Reducible):
    """Class enumeration was seeded with a reducible permutation."""


class BudgetExceeded(RauzyError):
    """Enumeration exceeded the configured node budget."""


class MoveCapExceeded(RauzyError):
    """A move rule did not reach its goal within its cap of moves."""


class InductionHalt(RauzyError):
    """Induction cannot proceed (equal compared data or matching end symbols)."""


class TooManySymbols(RauzyError):
    """A table has more symbols than a vertex key holds."""


class UndefinedMove(RauzyError):
    """The requested combinatorial move is not defined at this vertex."""


class NotAbelian(RauzyError):
    """Operation requires an interval-exchange (orientable) permutation."""


class OddDegreePresent(RauzyError):
    """Spin parity requires every singularity degree to be even."""
