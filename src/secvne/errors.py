"""Exception classes shared across the package, one per outcome.

- ``InvalidConfig``: a generator, file or CLI value is out of its legal
  range.  ``secvne`` exits 2 on it.
- ``EmbeddingInfeasible``: no complete embedding could be produced for a
  request, whichever step failed (candidate filter, node mapping, routing
  or search).  It is a rejection: ``simulation.run`` records it and goes on.
- ``InternalConsistencyError``: the simulator's bookkeeping disagrees with
  itself or with an independent recheck, such as an ``allocate`` that
  would drive a residual negative or a ``release`` of an embedding that is
  not active.  It is a bug, never an expected path.  ``secvne`` exits 3 on
  it.

A malformed library argument or structure raises the builtin
``ValueError``; the file loaders report it as ``InvalidConfig``.
"""


class SecVneError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfig(SecVneError):
    """A generator or CLI configuration value is out of its legal range."""


class EmbeddingInfeasible(SecVneError):
    """No complete embedding could be produced for the request."""


class InternalConsistencyError(SecVneError):
    """The simulator's bookkeeping disagrees with itself or an independent
    recheck."""
