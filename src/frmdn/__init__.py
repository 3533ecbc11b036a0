"""Flow-based recurrent mixture density networks.

A recurrent backbone emits per-step mixture parameters, an invertible
coupling stack transforms the targets, and the joint negative
log-likelihood (mixture term plus log-determinant term) is minimized.
Sampling runs the flow in reverse; a linear controller can be trained
with CMA-ES inside model-generated rollouts.
"""

import ctypes

__version__ = "0.1.0"

# glibc's mallopt parameter numbers (malloc.h) and its largest mmap
# threshold on 64-bit hosts
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def _keep_freed_memory():
    """Serve arrays up to 32 MiB from the heap and never trim it.

    A train step or an evaluation block frees multi-MB arrays that the next
    one allocates again.  Under glibc's default, dynamic thresholds those
    arrays go back to the kernel (as mmap chunks or a trimmed heap top) and
    every page is faulted in anew on the next use.  Setting the mmap
    threshold also turns its dynamic adjustment off, so the policy no
    longer depends on what was allocated before.  Does nothing off glibc.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX):
        mallopt(_M_TRIM_THRESHOLD, -1)


_keep_freed_memory()
