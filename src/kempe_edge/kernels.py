"""The kernel binding every module calls through.

``backend`` is the pure-Python kernel module :mod:`kempe_edge._kernels_py`
(bicolored-component tracing, swapping, properness, state enumeration).
Modules call the kernels as ``backend.<name>``, so a test can patch one
kernel, or a tracer can rebind a module's ``backend``, in one place.
"""
from __future__ import annotations

from . import _kernels_py as backend
from ._kernels_py import GraphArrays, build_arrays  # noqa: F401  (re-export)

BACKEND_NAME = "python"
