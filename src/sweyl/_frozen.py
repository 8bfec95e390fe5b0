"""The shared protocol of the package's immutable records."""


class Frozen:
    """Refuses assignment and deletion; pickles, copies, compares, hashes
    and prints through the ``__slots__`` fields, in their order.  A
    subclass sets them in its ``__init__`` through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__))
