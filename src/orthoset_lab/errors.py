"""Exception types raised by the library.

Every error that carries a counterexample stores it on the ``witness``
attribute as a JSON-ready payload, so CLI reports can surface it verbatim.
"""

from __future__ import annotations


class OrthosetLabError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InputError(OrthosetLabError):
    """An argument violates a documented precondition (mismatched spaces,
    scalar/sfield mismatch, malformed data)."""


class CertificateError(OrthosetLabError):
    """A Gram matrix failed the anisotropy certificate."""


class DependencyError(OrthosetLabError):
    """Vectors expected to be independent are not; witness holds a vanishing
    left combination of the inputs."""


class PreconditionError(OrthosetLabError):
    """A rank or dimension hypothesis required by a construction fails."""


class OrthogonalityViolationError(OrthosetLabError):
    """A map claimed to preserve orthogonality does not; witness holds the
    offending pair."""


class InconsistencyError(OrthosetLabError):
    """Internally contradictory data (e.g. scale factors that disagree
    across basis vectors, or a twist that cannot be classified)."""


class NotInducedError(OrthosetLabError):
    """A ray map is not of the form P(phi); witness holds a ray on which
    the reconstruction disagrees with the oracle."""


class NotOrthoisoError(OrthosetLabError):
    """A ray map fails the orthoisomorphism check; witness holds the pair."""


class NotPartialOrthometryError(OrthosetLabError):
    """A ray map fails the partial-orthometry checks; witness explains."""


class UnsupportedVariantError(OrthosetLabError):
    """The operation only supports the linear/unitary variant."""


class ParseError(OrthosetLabError):
    """A file or literal could not be parsed into a library value."""
