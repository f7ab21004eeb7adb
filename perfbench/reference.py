"""Reference kernel that measures the machine's speed, not the package's.

On a VM whose cores are shared with other tenants, such as the 2-core VM
the baseline in README.md was measured on, the same work runs up to about
80% slower for seconds to minutes at a time, on each core independently.
The benchmark scales every end-to-end timing by the kernel's nominal time
over its time measured next to that timing (see `SpeedProbe` in run.py).
The kernel shares no code with twophoton, so no change to the package can
move it.

Of the kernels tried, this one tracked the slowdowns of all three workloads
best: over 100 s of alternating measurements, log(workload time) against
log(kernel time) had slopes 0.8-1.1 and correlations 0.75-0.84.  A
pure-Python dict-and-complex kernel had slopes 0.4-0.7: it slows more than
the workloads do, so it over-corrects.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.007  # kernel time at which corrected seconds equal raw ones


def reference_kernel_s() -> float:
    """Seconds for a fixed numpy kernel: Philox draws and a searchsorted over
    2**16 values, three times."""
    import numpy as np

    t0 = time.perf_counter()
    edges = np.linspace(0.0, 1.0, 12)
    g = np.random.Generator(np.random.Philox(7))
    for _ in range(3):
        np.searchsorted(edges, g.random(1 << 16))
    return time.perf_counter() - t0
