"""Module attributes that import their defining module on first access.

Only ``svlab.cli.main`` and ``svlab.cli.schema`` use it.  They bind the
layer entry points they call through a PEP 562 module ``__getattr__``,
so a command loads only its own layer, and read them through the module,
so a tracer or test that rebinds one (``svlab.cli.main.decide``, say)
sees every call.  An import statement in a per-item klt converter would
run once per item.
"""

import importlib


def lazy_getattr(namespace: dict, sources: dict):
    """A module ``__getattr__`` for ``namespace``, the module's
    ``globals()``.  ``sources`` maps each lazy name to the module that
    defines it, absolute or relative to the module's package.  The first
    access imports that module and binds the object in ``namespace``, so
    later lookups, and a rebinding of the name from outside, find it
    there."""
    def __getattr__(name):
        source = sources.get(name)
        if source is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(
            importlib.import_module(source, namespace["__package__"]), name
        )
        namespace[name] = value
        return value
    return __getattr__
