"""A fixed loop that measures how fast the host runs at the moment.

A shared host runs the same code up to twice as slowly at some moments as
at others, for seconds to minutes at a time.  Each child process runs
``reference`` right before and right after ``run_scenario``; the benchmark
multiplies the process's times by ``REF_S`` over the mean of the two
reference times, so the times it reports are those of a host on which the
loop takes ``REF_S`` seconds.  The loop is the benchmark's own and never
calls the program, so a change to the program moves the scaled times as
much as the measured ones.
"""

import time

import numpy as np
import scipy.sparse as sp

# Typical seconds of ``reference`` on a 2-vCPU Intel Xeon VM with one
# OpenBLAS thread.
REF_S = 0.22


def reference() -> float:
    """Seconds taken by a fixed mix of what the scenarios spend time on.

    Three parts of about equal length: Python-level loops over small numpy
    operations (the golden-rule rates), small scipy.sparse products (the
    Fock-space Hamiltonians) and passes over cache-sized arrays (the
    vectorised reductions).  The arrays are small, so the loop adds under
    1 MB to the child's peak memory.
    """
    t0 = time.perf_counter()
    phase = np.linspace(0.0, 1.0, 16)
    m = np.zeros((16, 16), dtype=complex)
    for i in range(7000):
        b = np.exp(1j * i * phase)
        m = 0.5 * m + 0.5 * np.outer(b, b.conj())
    a = sp.diags(np.sqrt(np.arange(1.0, 31.0) / 31.0), 1, format="csr")
    h = sp.identity(31, dtype=complex, format="csr")
    for i in range(200):
        h = 0.5 * h + 0.25 * (np.exp(0.01j * i) * a + np.exp(-0.01j * i) * a.T) @ h
    x = np.linspace(0.0, 1.0, 1 << 13)
    for _ in range(3200):
        x = np.sqrt(x * x + 1.0) - 0.5
    return time.perf_counter() - t0
