"""A fixed reference task that measures how fast this machine is right now.

It does the kind of work the construction does, without importing the
program: cross products of integer triples of about 150 digits, gcd
normalisation, and deduplication in a dict.  The harness runs it between
iterations and scales its time metrics by it, so that a shift in machine
speed during or between runs does not read as a change in the program.

    python3 perfbench/reference.py   # prints 19900
"""

import random
from math import gcd

POINTS = 200


def canon(t):
    g = gcd(gcd(t[0], t[1]), t[2])
    t = (t[0] // g, t[1] // g, t[2] // g)
    first = next(c for c in t if c)
    return t if first > 0 else (-t[0], -t[1], -t[2])


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def main() -> int:
    rng = random.Random(7)
    points = [tuple(rng.getrandbits(500) - (1 << 499) for _ in range(3)) for _ in range(POINTS)]
    lines: dict = {}
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            line = canon(cross(p, q))
            lines[line] = lines.get(line, 0) + 1
    return len(lines)


if __name__ == "__main__":
    print(main())
