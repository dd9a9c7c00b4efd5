"""branchalg: decide equalities of subtree relations on infinite binary
trees, verify the Thompson generator presentations inside that algebra, and
enumerate and check finite relation algebras."""

__version__ = "0.1.0"


class UsageError(Exception):
    """Malformed input or a request the program cannot serve: a bad term,
    structure file, signature or law id.  The command line reports every
    subclass as `error: ...` with exit 2; a failing law is not one."""
