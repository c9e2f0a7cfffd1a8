"""Exception hierarchy for lattice construction and queries."""


class LatticeError(Exception):
    """Base class for every error raised by this package."""


class DuplicateName(LatticeError):
    """An element name occurs more than once."""


class UnknownName(LatticeError):
    """A cover pair references a name missing from the element list."""


class UnknownElement(LatticeError):
    """A query addressed an element name the lattice does not contain."""


class CyclicCovers(LatticeError):
    """The cover digraph contains a directed cycle."""


class RedundantCover(LatticeError):
    """An input cover pair is already implied transitively.

    The input format is a Hasse quiver; a transitively implied pair
    signals a malformed input rather than something to silently drop.
    """


class NotALattice(LatticeError):
    """Some pair of elements lacks a join or a meet."""


class NoBoundedStructure(LatticeError):
    """No unique top or bottom element."""


class TooLarge(LatticeError):
    """Requested size exceeds the desk-scale cap."""


class NotSemidistributive(LatticeError):
    """An operation that needs semidistributivity met a lattice without it."""


class NotAnArrow(LatticeError):
    """The given pair is not a Hasse arrow (upper does not cover lower)."""


class NotJoinIrreducible(LatticeError):
    """Kappa was asked for an element with other than one lower cover."""


class NotMeetIrreducible(LatticeError):
    """Dual kappa was asked for an element with other than one upper cover."""


class InvalidInterval(LatticeError):
    """The pair (lower, upper) does not satisfy lower <= upper."""


class InternalInvariant(LatticeError):
    """A computed result broke an identity the theory guarantees; indicates a bug.

    Raised explicitly rather than by assert, so the check also runs
    under python -O.
    """


class ParseError(LatticeError):
    """A lattice document is not well-formed JSON of the expected shape."""
