"""The one base class of nccw's immutable records.

Each record is a plain class that sets its fields once, in its own
``__init__``, through ``object.__setattr__``; afterwards assignment and
deletion raise ``AttributeError``.  Value types define ``__eq__`` and
``__hash__`` over their fields, the others compare by identity.  The
records are written out by hand rather than generated by the standard
library's record decorator: importing that module (with ``inspect``,
``ast`` and ``dis``) and running the decorators took about a third of
the command line's start-up.
"""


class Frozen:
    """Refuses to set or delete attributes once the constructor is done."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
