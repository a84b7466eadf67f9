"""Frozen value records.

`record` turns a class whose body annotates its fields into an immutable
value type. The fields are the annotated names in declaration order, and a
class-level value is the field's default. A record is built positionally or
by keyword, then `__post_init__` runs if the class defines one. Records
compare and hash by their field values, within one class only, and their
repr is `Name(field=value, ...)`. The fields cannot change, so the hash is
computed on first use and kept. Assigning or deleting an attribute raises
`AttributeError`. Instances keep a `__dict__`, so `cached_property` works
on them.

The methods are plain closures over the field names, built without `exec`,
so defining a record costs next to nothing at import.
"""

from operator import attrgetter

# Sets a field past the record's own __setattr__. Unlike an update of the
# instance __dict__, it keeps the attribute values in CPython's compact
# per-instance layout.
_set = object.__setattr__
# The instance attribute that keeps the hash once computed.
_HASH = "_record_hash"


def record(cls):
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = hasattr(cls, "__post_init__")
    count = len(names)
    get = attrgetter(*names)
    values = get if count > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if len(args) != count or kwargs:
            args = _bind(cls.__name__, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        h = self.__dict__.get(_HASH)
        if h is None:
            h = hash(values(self))
            _set(self, _HASH, h)
        return h

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}"
                          for name, value in zip(names, values(self)))
        return f"{cls.__qualname__}({inner})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        setattr(cls, method.__name__, method)
    return cls


def _bind(name: str, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values, in order, of a call with keywords or defaults."""
    if len(args) > len(names):
        raise TypeError(f"{name}() takes {len(names)} arguments "
                        f"but {len(args)} were given")
    given = dict(zip(names, args))
    for key in kwargs:
        if key not in names:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
    given.update(kwargs)
    missing = [n for n in names if n not in given and n not in defaults]
    if missing:
        raise TypeError(f"{name}() missing argument(s): {', '.join(missing)}")
    return [given[n] if n in given else defaults[n] for n in names]
