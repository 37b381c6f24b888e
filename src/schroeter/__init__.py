"""Exact ruler constructions on cubic curves.

Schroeter's construction iterates a simple pairing rule on three seed point
pairs; every point it produces lies on one cubic curve.  This package keeps
all of it in exact rational arithmetic: projective primitives, line
involutions, cubic fitting and chord thirds, the Weierstrass group law, and
checkable forms of the classical statements the construction rests on.

The package root exports no names and loads none of its modules, so that
each command loads only what it runs: import from the modules, as in
`from schroeter.engine import run`.
"""

import sys as _sys

# Coordinate heights grow quadratically along the construction; decimal
# serialization of such integers is legitimate here, so lift CPython's
# conversion guard well beyond anything a capped run can produce.
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(max(_sys.get_int_max_str_digits(), 2_000_000))

__version__ = "0.1.0"
