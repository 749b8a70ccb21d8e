"""scipy's compiled CSR kernels, bound without importing ``scipy.sparse``.

hypercf calls two routines of scipy's ``sparse/_sparsetools`` extension:
``csr_matvecs`` (``Y += A @ X`` for a CSR matrix ``A`` and a dense C-order
``X``) and ``csr_tocsc`` (the CSR arrays of ``Aᵀ``). Importing them through
``scipy.sparse`` would run its package ``__init__``, whose array-API layer
loads ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``: about 21 MB of RSS
and 0.2 s for code hypercf never calls. This module loads the extension
file itself, or reuses it when ``scipy.sparse`` is already imported, so each
product is the very call that ``csr_matrix @ x`` makes.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.sparse._sparsetools"


def _scipy_version() -> str:
    try:  # scipy's own __init__ is light; only its sparse package is not
        import scipy
        return scipy.__version__
    except Exception:  # the install is broken; its path still says where
        return "(version unknown)"


def _load():
    loaded = sys.modules.get(_NAME)
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("hypercf needs scipy's compiled sparse kernels, "
                          "and scipy is not installed")
    package = spec.submodule_search_locations[0]
    folder = os.path.join(package, "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_NAME, path,
                                                       loader=loader))
            loader.exec_module(module)
            # loading registers the module without its parent package; a
            # later `import scipy.sparse` then binds its own copy, whose
            # functions are these same objects
            if sys.modules.get(_NAME) is module:
                del sys.modules[_NAME]
            return module
    raise ImportError(
        f"scipy {_scipy_version()} at {package} has no compiled "
        f"sparse/_sparsetools extension (looked for the suffixes "
        f"{', '.join(importlib.machinery.EXTENSION_SUFFIXES)})")


_module = _load()
csr_matvecs = _module.csr_matvecs
csr_tocsc = _module.csr_tocsc
del _module
