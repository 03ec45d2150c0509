"""Module attributes that import their defining module on first access.

Only ``svlab.cli.main`` and ``svlab.cli.schema`` use it.  They bind the
layer entry points, the command handlers and the document readers
through a PEP 562 module ``__getattr__``, so a command loads only its
own layer, handler and reader.  The handlers read them through those
two modules, so a tracer or test that rebinds one
(``svlab.cli.main.decide``, say) sees every call.
"""


def lazy_getattr(namespace: dict, sources: dict):
    """A module ``__getattr__`` for ``namespace``, the module's
    ``globals()``.  ``sources`` maps each lazy name to the module that
    defines it, absolute or relative to the module's package.  The first
    access imports that module as ``from <source> import <name>`` would,
    so ``-X importtime`` reports it, and binds the object in
    ``namespace``, so later lookups, and a rebinding of the name from
    outside, find it there."""
    def __getattr__(name):
        source = sources.get(name)
        if source is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        module = source.lstrip(".")
        level = len(source) - len(module)
        value = getattr(
            __import__(module, namespace, None, (name,), level), name
        )
        namespace[name] = value
        return value
    return __getattr__
