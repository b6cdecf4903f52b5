"""Fixed reference job that gauges the speed of the host during a run.

It does what every clonectx invocation does, without any clonectx code:
start a fresh interpreter, import numpy and scipy.optimize, and run a fixed
loop of interpreted arithmetic.  Nothing here depends on the program under
test, so a change to the program does not move it, while the shared host's
speed, which drifts by 20-45% within minutes, moves it and the program alike.
``run.py`` interleaves it with the workload's invocations and reports times
scaled to the speed at which this job takes ``REFERENCE_S`` seconds.
"""

import numpy  # noqa: F401
import scipy.optimize  # noqa: F401

s = 0
for i in range(1_000_000):
    s += i * i % 7
