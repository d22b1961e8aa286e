"""The OpenBLAS kernel that numpy's bundled library picked for this CPU.

The eigensolver's last bits depend on that kernel, and so do the rounding
residues that some golden fields print, so a golden-file mismatch names it.
Run as a script, this prints the name: ``python tests/blas_core.py``.
"""

import ctypes
from pathlib import Path

import numpy as np


def openblas_core() -> str:
    """The core name from numpy's bundled scipy-openblas, or "unknown" for other builds."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:  # the library numpy already loaded: dlopen hands back the same handle
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


if __name__ == "__main__":
    print(openblas_core())
