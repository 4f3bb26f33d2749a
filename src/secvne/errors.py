"""Exception hierarchy shared across the package."""


class SecVneError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfig(SecVneError):
    """A generator or CLI configuration value is out of its legal range."""


class InsufficientResources(SecVneError):
    """An allocation would drive a residual negative.

    Raised only when the validator and the allocator disagree, which is a bug
    in the caller, not an expected rejection path.
    """


class AlreadyAllocated(SecVneError):
    """The embedding for this request is already active on the substrate."""


class DoubleRelease(SecVneError):
    """Release was called for an embedding that is not currently active."""


class NoBoundaryNode(SecVneError):
    """A substrate domain has no node incident to an inter-domain link."""


class LengthMismatch(SecVneError):
    """Two particle vectors that must align component-wise do not."""


class EmbeddingInfeasible(SecVneError):
    """No complete embedding could be produced for the request."""


class NodeMappingInfeasible(EmbeddingInfeasible):
    """A virtual node ran out of unused candidate substrate nodes."""


class LinkMappingInfeasible(EmbeddingInfeasible):
    """A virtual link could not be routed under cumulative bandwidth debits."""


class InternalConsistencyError(SecVneError):
    """The simulator's bookkeeping disagrees with an independent recheck."""
