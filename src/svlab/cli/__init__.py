"""Request documents in, check reports out: ``main`` dispatches the six
commands to handlers that live beside their document readers,
``schema`` keeps what the readers share, ``report`` renders check lines
and ``sweep`` runs the grid sweep.  The package binds no name."""
