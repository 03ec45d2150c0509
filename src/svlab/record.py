"""Frozen record classes, compiled from one source string per class.

Every svlab process is short, and the standard library's generator of
frozen classes costs one in two ways: importing it loads ``inspect`` and
the modules behind it, and each class it builds compiles six separate
functions.  ``record`` builds the same class with one ``exec``.

A record's fields are its annotations, in order; a class attribute of
the same name is the field's default.  A ``dict``, ``list`` or ``set``
default is copied for each instance, so no two instances share it.
``__init__`` assigns the fields and then calls ``__post_init__`` when
the class defines one.  Equality compares the field tuples of two
instances of the same class, the hash is that of the field tuple, the
repr is ``Name(field=value, ...)``, and assigning or deleting an
attribute raises ``AttributeError``.  A method the class defines itself
is kept.  Instances pickle and copy through their ``__dict__``, so
``functools.cached_property`` works on them.
"""

_MUTABLE = (dict, list, set)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    # _fresh stands for a mutable default the caller did not pass
    namespace = {"_set": object.__setattr__, "_fresh": object()}
    params, body = [], []
    for name in names:
        if name not in cls.__dict__:
            params.append(name)
        elif isinstance(cls.__dict__[name], _MUTABLE):
            namespace[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_fresh")
            body.append(f"  if {name} is _fresh: {name} = _d_{name}.copy()")
        else:
            namespace[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
        body.append(f"  _set(self, {name!r}, {name})")
    if "__post_init__" in cls.__dict__:
        body.append("  self.__post_init__()")
    own = "".join(f"self.{name}," for name in names)
    other = "".join(f"other.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    source = "\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *body,
        "def __eq__(self, other):",
        "  if other.__class__ is self.__class__:",
        f"    return ({own}) == ({other})",
        "  return NotImplemented",
        "def __hash__(self):",
        f"  return hash(({own}))",
        "def __repr__(self):",
        f"  return f'{{self.__class__.__qualname__}}({shown})'",
    ])
    exec(source, namespace)
    namespace["__setattr__"] = _frozen_setattr
    namespace["__delattr__"] = _frozen_delattr
    for method in ("__init__", "__eq__", "__hash__", "__repr__",
                   "__setattr__", "__delattr__"):
        if method not in cls.__dict__:
            setattr(cls, method, namespace[method])
    return cls
