"""One BLAS thread per process.

Every process that runs model math — the coordinator, the in-process
engines, serving, and each multiproc worker — pins the OpenBLAS numpy has
loaded to a single thread when :mod:`repro` is imported.  Two reasons:

* **Oversubscription.** K worker processes, each with an OpenBLAS pool of
  one thread per core, spin K × cores threads on the machine's cores.
  Parallelism in this system comes from processes, not from BLAS.
* **Bit-parity across core counts.** OpenBLAS splits a GEMM differently for
  different thread counts, which moves the low-order bits of the result;
  the in-process vs multiproc loss oracle holds only when every process
  uses the same count.

When numpy is not built on OpenBLAS (MKL, Accelerate), :data:`LIBRARY`
stays ``None`` and pinning is a recorded no-op.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Optional

import numpy as np

#: (setter, getter) symbol pairs: the scipy-openblas numpy wheels bundle,
#: then plain OpenBLAS builds.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _candidates():
    """OpenBLAS libraries mapped into this process, then numpy's bundled ones."""
    try:
        with open("/proc/self/maps") as fh:
            yield from sorted({line.split()[-1] for line in fh
                               if "openblas" in line and "/" in line})
    except OSError:
        pass
    root = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".dylibs/*openblas*"):
        yield from sorted(glob.glob(os.path.join(root, pattern)))


def _find():
    for path in _candidates():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                return path, getattr(lib, set_name), getattr(lib, get_name)
    return None, None, None


#: Path of the OpenBLAS library found, or ``None`` (numpy has no OpenBLAS).
LIBRARY, _setter, _getter = _find()


def pin_single_thread() -> None:
    """Set numpy's OpenBLAS to one thread (a no-op without OpenBLAS)."""
    if _setter is not None:
        _setter(1)


def blas_threads() -> Optional[int]:
    """Current OpenBLAS thread count, or ``None`` when numpy has no OpenBLAS."""
    return None if _getter is None else int(_getter())
