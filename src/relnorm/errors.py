"""One :class:`NormalizationError` subclass per kind of fault in a relation,
its dependencies or a decomposition, whichever layer finds it.  A bad
argument to a library function raises :class:`ValueError` instead."""


class NormalizationError(Exception):
    """Base class for every error raised by this package."""


class InvalidName(NormalizationError):
    """Attribute or relation name is empty, malformed, or too long."""


class DuplicateAttribute(NormalizationError):
    """A name is declared twice: as an attribute, component or flattened name."""


class EntryOrderViolation(NormalizationError):
    """An append would break the key / determiner / plain entry order."""


class CapacityExceeded(NormalizationError):
    """The relation already holds the maximum number of attributes."""


class UnknownAttribute(NormalizationError):
    """A name does not resolve against the relation or declared universe."""


class DeterminerSlotsExhausted(NormalizationError):
    """A dependent attribute already carries the maximum number of determiners."""


class LhsTooLarge(NormalizationError):
    """A dependency's left-hand side exceeds the configured attribute limit."""


class InvalidFd(NormalizationError):
    """A functional dependency is structurally malformed."""


class NoKeyDeclared(NormalizationError):
    """The relation declares no primary-key attribute."""


class DanglingForeignKey(NormalizationError):
    """A foreign key references a table that is not part of the script."""


class CyclicReference(NormalizationError):
    """Foreign keys among the given tables form a cycle."""


class SchemaSyntaxError(NormalizationError):
    """A schema file line does not match the grammar."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
