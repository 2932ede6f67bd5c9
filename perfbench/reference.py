"""Reference kernel: a fixed piece of work whose time tracks the machine's speed.

The machine the benchmark was defined on is shared, and other tenants slow
each of its vCPUs by up to 25% for tens of seconds at a time.  run.py starts
this script as a helper process on the same CPU as the workload and asks it
to time the kernel between steps; the ratio of the kernel's time to its
idle time (run.py's REFERENCE_S) is the CPU's slowdown at that moment.

The helper is a separate process so that nothing the library does to its
own process (heap growth, allocator state, numpy settings) changes the
kernel's time, and the kernel counts its own CPU time, not wall time, so
that a thread the library leaves running on the shared CPU does not either:
a slowdown of the library shows in the scaled rate, a slowdown of the CPU
(which stretches CPU time as much as wall time) does not.

Run as a script, it answers each line on standard input with the kernel's
time in seconds, and exits when standard input closes.
"""

import sys
import time

import numpy as np


def kernel():
    """Returns a timer of a fixed mix of interpreter work and small LAPACK calls.

    It is the kind of work in the inner loops of mc-small, scan-image and
    fuse-chain (eigh of a 32x32 matrix, a Python list build and a thin SVD,
    100 times), which is the kind the machine's slowdowns hit hardest.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    h = a @ a.conj().T
    tall = a[:, :4]

    def seconds() -> float:
        t0 = time.process_time()
        for _ in range(100):
            _, u = np.linalg.eigh(h)
            _ = [complex(v) for v in u[:, 0]]
            np.linalg.svd(tall, full_matrices=False)
        return time.process_time() - t0

    return seconds


def serve() -> None:
    seconds = kernel()
    for _ in sys.stdin:
        print(repr(seconds()), flush=True)


if __name__ == "__main__":
    serve()
