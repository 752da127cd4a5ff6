"""The base of the package's small immutable records."""


class Record:
    """A value made of the fields that a subclass lists in __slots__, which
    its __init__ sets with object.__setattr__.  Records compare and hash as
    the tuple of their fields, show them by name, and refuse assignment.
    This is a frozen dataclass without importing dataclasses, which would
    cost every CLI process several milliseconds at start."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
