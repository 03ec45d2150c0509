"""Frozen record classes: one compiled ``__init__`` per class.

Every svlab process is short, and the standard library's generator of
frozen classes costs one in two ways: importing it loads ``inspect`` and
the modules behind it, and each class it builds compiles six separate
functions.  ``record`` compiles only the class's ``__init__``, from one
source string; equality, hashing and the repr are shared functions that
read the class's field tuple.

A record's fields are its annotations, in order, and it has at least
one; a class attribute of the same name is the field's default.  A
``dict``, ``list`` or ``set`` default would be shared by every
instance, so ``record`` refuses it with ``TypeError``.  ``__init__``
assigns the fields and then calls ``__post_init__`` when the class
defines one.  Equality compares the field tuples of two instances of
the same class, the hash is that of the field tuple (a 1-tuple for a
one-field record), the repr is ``Name(field=value, ...)``, and
assigning or deleting an attribute raises ``AttributeError``.  A method
the class defines itself is kept.  Instances pickle and copy through
their ``__dict__``, so ``functools.cached_property`` works on them.
"""

from operator import attrgetter

_MUTABLE = (dict, list, set)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        values = self.__class__._record_values
        return values(self) == values(other)
    return NotImplemented


def _hash(self):
    return hash(self.__class__._record_values(self))


def _repr(self):
    cls = self.__class__
    shown = ", ".join(
        f"{name}={value!r}"
        for name, value in zip(cls._record_names, cls._record_values(self))
    )
    return f"{cls.__qualname__}({shown})"


_SHARED = {"__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
           "__setattr__": _frozen_setattr, "__delattr__": _frozen_delattr}


def record(cls):
    """Make ``cls`` a frozen record (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    namespace = {"_set": object.__setattr__}
    params, body = [], []
    for name in names:
        if name not in cls.__dict__:
            params.append(name)
        elif isinstance(cls.__dict__[name], _MUTABLE):
            raise TypeError(
                f"{cls.__qualname__}.{name}: a mutable default would be"
                " shared by every instance"
            )
        else:
            namespace[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
        body.append(f"  _set(self, {name!r}, {name})")
    if "__post_init__" in cls.__dict__:
        body.append("  self.__post_init__()")
    exec("\n".join([f"def __init__(self, {', '.join(params)}):", *body]),
         namespace)
    # the field tuple of an instance; attrgetter gives a bare value for
    # one name, which a one-field record wraps
    get = attrgetter(*names)
    cls._record_names = names
    cls._record_values = get if len(names) > 1 else lambda self: (get(self),)
    for method, function in (("__init__", namespace["__init__"]),
                             *_SHARED.items()):
        if method not in cls.__dict__:
            setattr(cls, method, function)
    return cls
