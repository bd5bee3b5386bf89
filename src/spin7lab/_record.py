"""The base of the package's read-only records."""

from operator import attrgetter


class Record:
    """The fields annotated in a class body, in order, with the values
    assigned there as defaults; ``__post_init__`` validates them.  A record
    is read-only, ``==`` and hashed by type and fields (``__hash__ = None``
    in a class body opts out), and shown as ``Name(field=value, ...)``.
    Instances keep a ``__dict__``, so ``cached_property`` works on them.

    It stands in for ``@dataclass(frozen=True)``, which imports ``inspect``
    and ``exec``s each class's methods: that was 15 ms of the 104 ms cold
    set-up of a benchmark child (CPython 3.11, 2-vCPU Xeon, no bytecode
    cache), a cost every ``spin7lab`` process pays at import."""

    def __init_subclass__(cls):
        fields = cls._fields = tuple(vars(cls).get("__annotations__", ()))
        defaulted = {f for f in fields if f in vars(cls)}
        required = len(fields) - len(defaulted)
        check = getattr(cls, "__post_init__", None)
        cls._key = attrgetter(*fields)

        def __init__(self, *args, **kwargs):
            attrs = self.__dict__  # a field left out reads its class default
            for field, value in zip(fields, args):
                attrs[field] = value
            if kwargs or not required <= len(args) <= len(fields):
                named = set(fields[len(args):])
                if (len(args) > len(fields) or not kwargs.keys() <= named
                        or not named.difference(kwargs) <= defaulted):
                    raise TypeError(f"{cls.__name__}{fields}: bad arguments")
                attrs.update(kwargs)
            if check is not None:
                check(self)

        cls.__init__ = __init__

    def __delattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __setattr__ = __delattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"
