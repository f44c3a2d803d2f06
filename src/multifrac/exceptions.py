"""Error types shared across the package.

Each domain error carries a stable ``code`` string so the command-line
front end can map failures onto exit codes and machine-readable reports.
"""


class MultifracError(Exception):
    """Base class for every domain error raised by this package."""

    code = "Error"


class ZeroGenerator(MultifracError):
    code = "ZeroGenerator"


class DuplicateBase(MultifracError):
    code = "DuplicateBase"


class NotCanonical(MultifracError):
    code = "NotCanonical"


class NotAtomic(MultifracError):
    code = "NotAtomic"


class BadIndex(MultifracError):
    code = "BadIndex"


class ImproperBase(MultifracError):
    code = "ImproperBase"


class ValueMismatch(MultifracError):
    code = "ValueMismatch"


class NotMember(MultifracError):
    code = "NotMember"


class ZeroLength(MultifracError):
    code = "ZeroLength"


class BadSeed(MultifracError):
    code = "BadSeed"


class BadLevel(MultifracError):
    code = "BadLevel"


class ParseError(MultifracError):
    """Malformed textual input; treated as a usage error by the CLI."""

    code = "ParseError"
