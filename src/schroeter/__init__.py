"""Exact ruler constructions on cubic curves.

Schroeter's construction iterates a simple pairing rule on three seed point
pairs; every point it produces lies on one cubic curve.  This package keeps
all of it in exact rational arithmetic: projective primitives, line
involutions, cubic fitting and chord thirds, the Weierstrass group law, and
checkable forms of the classical statements the construction rests on.

The package root exports no names and loads none of its modules, so that
each command loads only what it runs: import from the modules, as in
`from schroeter.engine import run`.  Importing it leaves CPython's limit
on int/str conversion alone: the package lifts it only around its own
decimal conversions (`errors.lifted_digit_limit`).
"""

__version__ = "0.1.0"
