"""Prime-field Laurent-series kernel and the catalogued curve families.

Submodules: ``series`` (Laurent series over GF(p) with precision
tracking, roots by Newton iteration), ``families`` (curve families,
local expansions at infinity, and the invariant certificates built from
them).  The package binds no name of its own."""
