"""The base of rnskit's value types: immutable records over __slots__."""


class Record:
    """Equality, hash and repr over the class's FIELDS; no assignment after __init__.

    A subclass names its constructor fields, in order, in FIELDS and every
    attribute in __slots__; its __init__ validates and sets the slots with
    object.__setattr__.  A slot outside FIELDS is a cache: left out of
    equality, hash and repr, but kept by pickle and copy.
    """

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

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
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)
