"""Host-speed probe: a fixed pure-Python task timed on the spot.

On a shared machine the same work runs up to twice as fast at one moment as
at another, which swamps the differences the benchmark exists to show.  So
timings are reported at a reference host speed: each is divided by the
host's slowness at that moment, the probe's time over REFERENCE_MS (the
probe's median on the 2-vCPU machine the bounds were set on).  Raw times
stay in each run's record.
"""

import statistics
import time

REFERENCE_MS = 1.6


def probe_ms() -> float:
    start = time.perf_counter()
    sum(i * i for i in range(20_000))
    return 1e3 * (time.perf_counter() - start)


def slowness(samples) -> float:
    """Median probe time over the reference: 1.0 on a reference host."""
    return statistics.median(samples) / REFERENCE_MS
