"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the same compile can take 0.9 s in
one minute and 1.5 s in the next, in wall and CPU time alike. A fixed
pure-Python kernel run on both sides of a timed call slows down with it,
so each call is reported as

    raw seconds * REF_KERNEL_S / kernel seconds

that is, in seconds at the speed where one kernel run takes
REF_KERNEL_S. Across runs minutes apart, these scaled medians moved by
about 5% where the raw ones moved by 20-50%. The kernel lives here, not
in the toolchain, so a change to the toolchain cannot change it. It does
the kind of work the toolchain does: small objects copied field by
field, dict comprehensions, sorting and tuple building.
"""

from __future__ import annotations

import gc
from time import perf_counter

# kernel time on an idle 2-vCPU x86-64 Linux host under CPython 3.11
REF_KERNEL_S = 0.0045

# calibrate for this share of the timed call on each side (at least one run)
CAL_SHARE = 0.1


class _Cell:
    def __init__(self, key, left, right, tag):
        self.key = key
        self.left = left
        self.right = right
        self.tag = tag

    def copy(self) -> "_Cell":
        return _Cell(self.key, self.left, self.right, self.tag)


def kernel() -> int:
    cells = {i: _Cell(i, i * 7 % 31, "r%d" % (i % 13), i & 3) for i in range(300)}
    seen = set()
    acc = 0
    for rnd in range(25):
        cp = {k: c.copy() for k, c in cells.items()}
        rows = tuple((c.tag, c.left, c.right) for _, c in sorted(cp.items()))
        seen.add((rnd % 7, rows))
        acc += len(rows)
    return acc + len(seen)


def calibrate(call_s: float) -> float:
    """Mean seconds per kernel run, over CAL_SHARE of call_s or one run.

    Starts with a full collection, so garbage left by the timed call before
    is not collected inside the kernel, and with one uncounted run, since
    the first run after a collection is slower.
    """
    gc.collect()
    kernel()
    n = 0
    start = perf_counter()
    end = start + CAL_SHARE * call_s
    while True:
        kernel()
        n += 1
        now = perf_counter()
        if now >= end:
            return (now - start) / n


def scaled(raw_s: float, kernel_s: float) -> float:
    return raw_s * REF_KERNEL_S / kernel_s
