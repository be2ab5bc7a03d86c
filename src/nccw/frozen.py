"""The base classes of nccw's immutable records.

Each record is a plain class that declares its fields once, as
annotations in its own body, and sets them once, in its own
``__init__``, through ``object.__setattr__``; afterwards assignment and
deletion raise ``AttributeError``.  Records deriving from
:class:`Frozen` compare by identity.  Records deriving from
:class:`Value` compare, hash and print by their declared fields, in
declaration order; a value that must stay unhashable sets
``__hash__ = None``.  The constructors are written out by hand rather
than generated by the standard library's record decorator: importing
that module (with ``inspect``, ``ast`` and ``dis``) and running the
decorators took about a third of the command line's start-up.
"""

from operator import attrgetter


class Frozen:
    """Refuses to set or delete attributes once the constructor is done."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Value(Frozen):
    """A frozen record equal to another of its exact class when their
    fields, in declaration order, are equal."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_names = tuple(cls.__annotations__)
        cls._field_values = attrgetter(*cls._field_names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{type(self).__name__}({fields})"
