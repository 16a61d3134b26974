"""Frozen result records, without the dataclasses machinery.

record(cls) takes the field names from the annotations written in the
class body, in order, and a field's default from the class attribute of
the same name.  It installs __init__ (positional or keyword arguments),
__repr__ as Name(field=value, ...), __eq__ and __hash__ over the tuple of
field values, and __setattr__ and __delattr__ that refuse every change.

This is what dataclass(frozen=True) gave these classes.  Importing
dataclasses loads inspect, ast and dis, and each decorated class then
compiles generated source; every command-line run pays that once per
process, and it was most of the time that importing the package took.
"""
from operator import attrgetter


def record(cls):
    name = cls.__qualname__
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    names = frozenset(fields)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    # As in a dataclass, the fields with defaults come last.
    first = len(fields) - len(defaults)
    if any(f not in defaults for f in fields[first:]):
        raise TypeError(f"{name}: a field without a default follows one with")
    tail = tuple(defaults.values())
    get = attrgetter(*fields)
    # attrgetter of one name returns the value itself, not a 1-tuple.
    values = get if len(fields) > 1 else lambda self: (get(self),)

    def bind(args, kwargs):
        """The field values in order, from any arguments but positional
        ones that need only the trailing defaults."""
        if not args and kwargs.keys() == names:
            return map(kwargs.__getitem__, fields)
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} arguments, got {len(args)}"
            )
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{name}() got an unknown field {key!r}")
            if key in given:
                raise TypeError(f"{name}() got field {key!r} twice")
            given[key] = value
        missing = [f for f in fields[:first] if f not in given]
        if missing:
            raise TypeError(f"{name}() is missing fields {missing}")
        return [given.get(f, defaults.get(f)) for f in fields]

    def __init__(self, *args, **kwargs):
        if kwargs or not first <= len(args) <= len(fields):
            args = bind(args, kwargs)
        elif len(args) < len(fields):
            args += tail[len(args) - first:]
        self.__dict__.update(zip(fields, args))

    def __repr__(self):
        inner = ", ".join([f"{f}={getattr(self, f)!r}" for f in fields])
        return f"{name}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r} of {name}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r} of {name}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__,
                   __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
