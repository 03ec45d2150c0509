"""Request documents in, check reports out: ``main`` dispatches the six
commands, ``schema`` reads documents, ``report`` renders check lines
and ``sweep`` runs the grid sweep.  The package binds no name."""
