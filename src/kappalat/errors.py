"""Exception hierarchy for lattice construction and queries."""


class LatticeError(Exception):
    """Base class for every error raised by this package.

    exit_code is the CLI's exit status for the error: 2 the input is
    not a lattice, 3 it is not semidistributive, 4 an invalid query,
    and 1 for everything else (parse and internal errors).
    """
    exit_code = 1


class DuplicateName(LatticeError):
    """An element name occurs more than once."""
    exit_code = 2


class UnknownName(LatticeError):
    """A cover pair references a name missing from the element list."""
    exit_code = 2


class UnknownElement(LatticeError):
    """A query addressed an element name or id the lattice does not contain."""
    exit_code = 4


class CyclicCovers(LatticeError):
    """The cover digraph contains a directed cycle."""
    exit_code = 2


class RedundantCover(LatticeError):
    """An input cover pair is already implied transitively.

    The input format is a Hasse quiver; a transitively implied pair
    signals a malformed input rather than something to silently drop.
    """
    exit_code = 2


class NotALattice(LatticeError):
    """Some pair of elements lacks a join or a meet."""
    exit_code = 2


class NoBoundedStructure(LatticeError):
    """No unique top or bottom element."""
    exit_code = 2


class TooLarge(LatticeError):
    """Requested size exceeds the desk-scale cap."""
    exit_code = 2


class NotSemidistributive(LatticeError):
    """An operation that needs semidistributivity met a lattice without it."""
    exit_code = 3


class NotAnArrow(LatticeError):
    """The given pair is not a Hasse arrow (upper does not cover lower)."""
    exit_code = 4


class NotJoinIrreducible(LatticeError):
    """Kappa was asked for an element with other than one lower cover."""
    exit_code = 4


class NotMeetIrreducible(LatticeError):
    """Dual kappa was asked for an element with other than one upper cover."""
    exit_code = 4


class InvalidInterval(LatticeError):
    """The pair (lower, upper) does not satisfy lower <= upper."""
    exit_code = 4


class InternalInvariant(LatticeError):
    """A computed result broke an identity the theory guarantees; indicates a bug.

    Raised explicitly rather than by assert, so the check also runs
    under python -O.
    """


class ParseError(LatticeError):
    """A lattice document is not well-formed JSON of the expected shape."""
