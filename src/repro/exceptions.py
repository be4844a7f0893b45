"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError`, so user
code can catch every library-specific failure with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class QueryError(ReproError):
    """A conjunctive query is malformed or violates a structural assumption."""


class ParseError(QueryError):
    """A textual conjunctive query could not be parsed."""


class VocabularyError(QueryError):
    """Two objects use the same relation name with inconsistent arities."""


class StructureError(ReproError):
    """A relational structure / database instance is malformed."""


class DecompositionError(ReproError):
    """A tree decomposition is invalid or cannot be constructed.

    Raised, for example, when a junction tree is requested for a query whose
    Gaifman graph is not chordal, or when a join tree is requested for a
    cyclic query.
    """


class EntropyError(ReproError):
    """An entropy / polymatroid computation received inconsistent input."""


class ExpressionError(ReproError):
    """A linear or max-linear information expression is malformed."""


class LPError(ReproError):
    """A linear program could not be solved reliably."""


class CertificateError(ReproError):
    """A proof certificate failed verification."""


class WitnessError(ReproError):
    """A counterexample witness failed verification or could not be built."""


class ReductionError(ReproError):
    """A many-one reduction received input outside its domain."""


class StoreError(ReproError):
    """The durable verdict store is corrupt, unwritable or refused a record."""
