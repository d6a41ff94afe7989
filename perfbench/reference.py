"""A fixed reference computation that measures how fast the machine runs
pure-Python code at the moment.

On a host shared with other tenants the machine switches between a fast
and a slow speed about 1.5x apart, for spells from a fraction of a second
to minutes, and the CPU time of the process moves with the wall time, so
neither clock alone tells a slower program from a busier machine.  The
benchmark times this computation right before and after every job and
scales the job's time by it (see `normalized`).  The computation never
calls `cellposet`, so a change to the program leaves it alone; it does the
kind of work the program does (tuples as faces, dict indexes of their
subfaces, bit-packed GF(2) rows reduced by XOR) on a fixed pseudo-random
complex.
"""

from __future__ import annotations

import random
import time

# About the seconds one `chunk()` takes on the machine the baseline was
# measured on (Intel Xeon, 2 vCPUs, Python 3.11.7; 0.065-0.115 s as the
# load from other tenants comes and goes).  It only sets the scale:
# normalized times read in seconds of that machine at this speed.
REF_SECONDS = 0.08

_FACES = None


def _faces() -> list[tuple[int, ...]]:
    """3000 distinct triangles on 30 vertices, the same every time."""
    global _FACES
    if _FACES is None:
        rnd = random.Random(20101001)
        faces = set()
        while len(faces) < 3000:
            faces.add(tuple(sorted(rnd.sample(range(30), 3))))
        _FACES = sorted(faces)
    return _FACES


def _round(faces) -> int:
    """GF(2) rank of the boundary matrix of `faces`."""
    index: dict[tuple[int, ...], int] = {}
    rows = []
    for f in faces:
        row = 0
        for i in range(len(f)):
            row ^= 1 << index.setdefault(f[:i] + f[i + 1:], len(index))
        rows.append(row)
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            other = basis.get(low)
            if other is None:
                basis[low] = row
                break
            row ^= other
    return len(basis)


ROUNDS = 2
RANK = 406          # the rank `_round` finds, checked on every chunk


def chunk() -> float:
    """Run the reference computation once; returns its wall time."""
    faces = _faces()
    start = time.perf_counter()
    ranks = [_round(faces) for _ in range(ROUNDS)]
    elapsed = time.perf_counter() - start
    if ranks != [RANK] * ROUNDS:
        raise RuntimeError(f"reference computation gave ranks {ranks}")
    return elapsed


def normalized(elapsed: float, before: float, after: float) -> float:
    """`elapsed` scaled to the reference machine, using the reference
    times measured right before and right after it."""
    return elapsed * REF_SECONDS / ((before + after) / 2)
