"""The kernel binding every module calls through.

``backend`` is the pure-Python kernel module :mod:`kempe_edge._kernels_py`
(bicolored-component tracing, ordered by ``trace_component`` or as a bare
edge set by ``component_edges``; properness, state enumeration).
The kernels take the :class:`~kempe_edge.graph_core.Graph` itself and read
its ``edges`` and ``adj``; the graph has no second representation.
Modules call the kernels as ``backend.<name>``, so a test can patch one
kernel, or a tracer can rebind a module's ``backend``, in one place.
"""
from __future__ import annotations

from . import _kernels_py as backend

BACKEND_NAME = "python"
