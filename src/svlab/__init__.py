"""svlab: exact-arithmetic verification toolkit for positivity and
non-vanishing questions on ruled surfaces in small characteristic.

Every rational is carried as a pair of ints, a numerator over a
positive denominator, and printed from them, so no module imports
``fractions``.  Import each name from its module (``from
svlab.nonvanish import decide``); ``import svlab`` loads no layer."""

__version__ = "0.1.0"
