"""Environment block recorded with every benchmark result.

Cores, BLAS vendor and live thread count, the inherited
``OPENBLAS_NUM_THREADS``, and the Python, numpy and scipy versions.  The
BLAS thread count is read from the OpenBLAS build that numpy and scipy
bundle, through its own getter and :mod:`ctypes`, so no extra package is
needed.  The benchmark never changes the BLAS setting; it only records it,
so a later change that pins BLAS threads inside the engine shows up as a
measured difference.
"""

from __future__ import annotations

import ctypes
import os
import platform

#: Getter symbols exported by the OpenBLAS builds numpy and scipy bundle
#: (64-bit-integer ``scipy_openblas64_`` first, then the 32-bit and plain
#: upstream spellings).
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_GETTERS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_blas_libraries() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.rsplit(" ", 1)[-1].strip()
                if "openblas" in os.path.basename(path).lower() and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def _blas_entry(path: str) -> dict:
    """Vendor string and live thread count of one loaded OpenBLAS."""
    entry: dict = {"library": os.path.basename(path)}
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        entry["error"] = str(exc)
        return entry
    for symbol in _CONFIG_GETTERS:
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_char_p
            entry["vendor"] = getter().decode("ascii", "replace").strip()
            break
    for symbol in _THREAD_GETTERS:
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            entry["threads"] = int(getter())
            break
    return entry


def environment() -> dict:
    """The environment block; call after numpy and scipy are imported."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own BLAS)

    return {
        "cores": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": [_blas_entry(path) for path in _loaded_blas_libraries()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
