"""The base of the package's frozen value classes."""


class Frozen:
    """Fields are the subclass's ``__slots__``, set once by ``object.__setattr__``
    in its ``__init__``, whose positional arguments they are, in order.  The
    subclass defines ``__eq__`` and ``__hash__``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copies and pickles are rebuilt by the constructor
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
