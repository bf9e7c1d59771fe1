"""numpy, bound on first use.

Every module of the package takes ``np`` from here (``from ._lazy import
np``) instead of ``import numpy as np``, so that importing the package and
running every command but ``reproduce`` (the four bounds, ``limit``,
``monitor``), which compute in plain floats, never run numpy's own
``__init__``.

If numpy is already in ``sys.modules``, that module is used as it is.
Otherwise its spec is found, its loader is wrapped in
``importlib.util.LazyLoader`` and the module is registered in
``sys.modules["numpy"]`` before ``exec_module``, as the standard-library
recipe does; a later ``import numpy`` anywhere in the process gets the same
object. numpy's ``__init__`` then runs on the first attribute access, after
which the object is the ordinary numpy module and attribute access costs
what it always does.

Python 3.11's ``LazyLoader`` takes no lock (3.12 added one), so the first
numeric call should not race across threads. Forking is safe:
``nbbounds.simulation.replicate`` touches numpy before it forks.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _lazy_numpy()
