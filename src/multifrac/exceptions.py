"""Error types shared across the package.

Each domain error carries a stable ``code``, its class name, which the
command-line front end prints in its one-line ``error[code]`` reports.
"""


class MultifracError(Exception):
    """Base class for every domain error raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class ZeroGenerator(MultifracError):
    pass


class DuplicateBase(MultifracError):
    pass


class NotCanonical(MultifracError):
    pass


class NotAtomic(MultifracError):
    pass


class BadIndex(MultifracError):
    pass


class ImproperBase(MultifracError):
    pass


class ValueMismatch(MultifracError):
    pass


class NotMember(MultifracError):
    pass


class ZeroLength(MultifracError):
    pass


class BadSeed(MultifracError):
    pass


class BadLevel(MultifracError):
    pass


class ParseError(MultifracError):
    """Malformed textual input; treated as a usage error by the CLI."""
