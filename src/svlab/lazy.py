"""Module attributes that import their defining module on first access.

A fresh ``svlab`` process pays for every module it imports, so the
package and the CLI bind the layers' names through a PEP 562 module
``__getattr__`` instead of importing every layer up front.
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
