"""Secure outsourcing of ML kernels to a simulated processing-in-memory
device: additive sharing over Z_{2^32}, counter-mode OTPs, linear-modular-
hashing verification, and garbled-circuit offload of activations."""

import ctypes

__version__ = "0.1.0"

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep freed numpy buffers in the heap for the next op.

    By default glibc serves each large buffer (garbling tables and keys, the
    MAC fold's float64 temporary, the input draws) by its own mmap, or
    trims the heap top once it is freed, so the next op faults the same
    pages in again.  A 32 MiB mmap threshold (glibc's 64-bit maximum) and a
    64 MiB trim threshold keep them in the heap.  Both are set: fixing one
    disables glibc's dynamic threshold, which leaves the mmap threshold at
    128 KiB.  This is process-wide, and resident memory stays at the highest
    peak an op has reached.  A libc without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory()
