"""Machine-speed references for the benchmark's timings.

On a small shared host the speed of the same code drifts by a fifth or more
over seconds to minutes (neighbours' load, clock changes), and a run's
median latency follows that drift more than it follows the program.  So the
benchmark times a fixed reference, which does not touch the program, after
every operation and reports each time in reference seconds:

    scaled = measured * nominal / (median reference time around it)

Two references cover the two kinds of operation.  ``reference`` is a loop
that mixes the kinds of work the library does (Python arithmetic and calls
on small and large numpy arrays); ``process_reference`` starts a bare
interpreter (``python -S -c pass``), the work that dominates a cold command.
A slower machine slows each about as much as the operations it stands for.
A change to the program moves the operations' times but not the
reference's, so every gain or loss of the program shows in full.  The raw
times stay in the run's report.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Nominal times of one reference loop and one bare interpreter start, about
#: their times on a 2-vCPU Xeon VM when it is not contended; scaled times
#: equal raw times at that speed.
REFERENCE_S = 0.010
PROCESS_REFERENCE_S = 0.012

#: Operations on each side of an operation whose reference times set its
#: scale: about two seconds of a run at 150 ms per operation.
HALF_WINDOW = 7

_SMALL = np.linspace(0.1, 1.0, 20)
_LARGE = np.linspace(0.1, 1.0, 2400)


def _reference_work() -> float:
    acc = 0
    for i in range(70_000):
        acc += i * i % 7
    total = float(acc)
    for _ in range(300):
        x = np.exp(-0.5 * _SMALL) * _SMALL + np.cumsum(_SMALL)
        total += float(np.dot(x, _SMALL))
    for _ in range(30):
        y = np.exp(-0.5 * _LARGE) * _LARGE + np.cumsum(_LARGE)
        total += float(np.dot(y, _LARGE)) + float(y.sum())
    return total


def reference() -> float:
    """Seconds one reference loop takes now."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


def process_reference() -> float:
    """Seconds a bare interpreter takes now to start and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scales(ref_seconds: list[float], nominal: float,
           half_window: int = HALF_WINDOW) -> list[float]:
    """Per sample, ``nominal`` over the median of the reference times within
    ``half_window`` samples of it (fewer at the ends of the run)."""
    n = len(ref_seconds)
    out = []
    for i in range(n):
        window = ref_seconds[max(0, i - half_window):min(n, i + half_window + 1)]
        out.append(nominal / statistics.median(window))
    return out


def scaled(seconds: list[float], ref_seconds: list[float], nominal: float) -> list[float]:
    """``seconds`` in reference seconds, each by the references around it."""
    return [s * k for s, k in zip(seconds, scales(ref_seconds, nominal))]
