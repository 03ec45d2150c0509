"""svlab: exact-arithmetic verification toolkit for positivity and
non-vanishing questions on ruled surfaces in small characteristic.

Import each name from its module (``from svlab.nonvanish import
decide``); ``import svlab`` loads no layer."""

__version__ = "0.1.0"
