"""Records: NamedTuples that equal only records of their own class.

The package's value classes are NamedTuples rather than dataclass
classes: the dataclass module imports `inspect` and writes each class's
methods at run time, which cost every command 15–20 ms of start-up.
A NamedTuple compares as the tuple of its fields, though, so a point
would equal the line, or the bare tuple, of the same coordinates.
`record` keeps each class's equality within the class; the hash stays
the tuple's, hash((field, ...)).

A record that canonicalizes or validates its fields does so in the
`__new__` of a subclass of its NamedTuple, and `record` makes `_make`, and
with it `_replace`, build through that constructor.
"""


def _equal(self, other) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _unequal(self, other) -> bool:
    return other.__class__ is not self.__class__ or tuple.__ne__(self, other)


def record(cls):
    """Class decorator for a NamedTuple, or a subclass of one: equality
    within the class, and `_make` through the constructor."""
    cls.__eq__, cls.__ne__ = _equal, _unequal
    cls._make = classmethod(lambda cls, values: cls(*values))
    return cls
