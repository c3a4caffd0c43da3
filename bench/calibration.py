"""The calibration loop: how fast the host runs Python at this moment.

The loop calls no engine code and allocates nothing the garbage collector
tracks, so a change to the program cannot move it; only the host's speed
does.  ``run.py`` times it before every measured invocation and inside
every set-up process, and scales its time metrics by the result (see
README.md, "Steadiness").
"""

from time import perf_counter

ITERATIONS = 6000
REFERENCE_S = 0.0007  # the loop's time at reference speed


def loop_seconds() -> float:
    start = perf_counter()
    x = 0
    for i in range(ITERATIONS):
        x = (x * 31 + i) & 0xFFFFF
    return perf_counter() - start
