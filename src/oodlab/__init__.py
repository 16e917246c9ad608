"""Desk-scale abstaining-penalty anomaly detection for LiDAR point clouds.

Importing the package runs numpy's bundled OpenBLAS on one thread: the
training results and their wall time both changed with the BLAS thread
count (GEMMs sum in another order), and the GEMMs here are too small to
gain from more threads. Environment variables cannot do this once numpy
is loaded, so the thread count is set through OpenBLAS's own entry point.
"""


# OpenBLAS's thread-count setters, newest naming first; each has a getter
# named with "get" in place of "set"
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                        "openblas_set_num_threads")


def _pin_blas_threads() -> None:
    """Set numpy's bundled OpenBLAS to one thread. Where numpy has no
    bundled OpenBLAS, the BLAS keeps its own setting."""
    import ctypes
    from pathlib import Path

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in _BLAS_THREAD_SETTERS:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                return


_pin_blas_threads()
