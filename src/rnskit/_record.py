"""The base of rnskit's value types: immutable records over __slots__."""


class Record:
    """Equality, hash and repr over the class's FIELDS; no assignment after __init__.

    FIELDS is exactly the constructor's parameters, in order (a test in
    tests/test_records.py holds every type to it); __slots__ names every
    attribute.  __init__ validates, then sets every slot with one
    __setstate__ call, values in __slots__ order.  A slot outside FIELDS is
    a derived cache, out of equality, hash and repr; pickle and copy keep it.
    """

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    # each slot's setter, in __slots__ order, bound once per class
    def __init_subclass__(cls) -> None:
        cls._SETTERS = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setstate__(self, state: tuple) -> None:
        for setter, value in zip(self._SETTERS, state):
            setter(self, value)
