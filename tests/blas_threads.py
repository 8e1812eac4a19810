"""Run a block of code with OpenBLAS on one thread.

A threaded OpenBLAS splits a matrix-vector product's output rows between
threads at points that depend on the product's width, and rounds the last
(share mod 4) rows of each share through another kernel.  A product evaluated
in blocks of columns therefore matches the whole-matrix product bit for bit
only on one thread, whatever the block width; the whole-matrix product itself
changes in its last bits with the thread count.  The bit-identity tests of
the blocked principal value run their comparisons inside one_blas_thread();
every other test runs at the thread count the process was started with.
"""

import contextlib
import ctypes
import glob
import os

import numpy as np

# (get, set) entry points of the OpenBLAS builds numpy ships or links.
_ENTRY_POINTS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _thread_controls():
    """The (get, set) functions of the OpenBLAS numpy has loaded, or None."""
    root = os.path.dirname(np.__file__)
    for path in glob.glob(os.path.join(root, os.pardir, "numpy*libs", "*openblas*")):
        lib = ctypes.CDLL(path)  # already loaded by numpy: the same instance
        for get, set_ in _ENTRY_POINTS:
            if hasattr(lib, get) and hasattr(lib, set_):
                return getattr(lib, get), getattr(lib, set_)
    return None


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS on one thread inside the block, at its former count after.
    Where numpy's OpenBLAS cannot be found the block runs unchanged."""
    controls = _thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
