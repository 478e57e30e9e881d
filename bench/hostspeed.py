"""Host speed, from a fixed reference kernel run next to every timed call.

The shared host this benchmark was written on (2 vCPUs of a Xeon, Python
3.11, numpy 2.4) does two things to a single-threaded program.  It takes the
CPU away for stalls of milliseconds, which in loaded spells put a tail on
call latency that moved p99 by more than 2 times between runs; the benchmark
times the process's CPU time, which leaves the stalls out.  And it moves,
for spells of one to tens of seconds, between a fast state and states 1.4
to 2 times slower, CPU time included, and a 45-s run can fall wholly in a
slow spell.  Wall times therefore measured the host more than the
program: the mean checks/s of ten runs of the same code spread by 17 to 27%,
and even the fastest tenth of each run's half-second windows moved by 25%
between runs.  mubsic's calls slowed by about the same factor as a
pure-Python and small-numpy loop run next to them.

So the benchmark runs ``kernel_s()`` (this module's code and numpy only,
nothing of mubsic) before and after each timed call, and in each set-up
process after its set-up, and refers the CPU time to a host on which the
kernel takes ``REF_S``:

    referred = cpu * REF_S / (kernel time next to it)

A change to mubsic moves ``cpu`` and leaves the kernel alone (its timed
run follows an untimed one, so what a call leaves in the caches does not
reach it), so it shows in full; a change of host speed moves both and
cancels.  What this cannot
remove: a host state that slows mubsic's code more than the kernel's (the
deepest slow spells slowed the campaigns about 15% more), and anything
outside mubsic that changes the kernel's own speed, such as another numpy.
"""

from __future__ import annotations

from time import process_time

import numpy

# the warm kernel's CPU time on the unloaded host named above; it only sets the
# scale of referred times, so any fixed value gives the same comparisons
REF_S = 450e-6

_MATRIX = numpy.array([[1.0 / (1 + i + j) for j in range(7)] for i in range(7)])


def _kernel() -> int:
    """Small-matrix numpy calls and Python bookkeeping, like a campaign row."""
    total = 0.0
    rows = []
    for i in range(24):
        w = numpy.linalg.eigvalsh(_MATRIX + i * 1e-3)
        p = numpy.clip(w, 0.0, None)
        p = p / p.sum()
        total += float(numpy.log2(p[p > 0]).sum())
        rows.append({"i": i, "total": repr(total), "w0": repr(float(w[0]))})
    return len(rows)


def kernel_s() -> float:
    """CPU time of one kernel run, after an untimed run that warms the caches."""
    _kernel()
    start = process_time()
    _kernel()
    return process_time() - start
