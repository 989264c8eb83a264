"""Exact sum-of-squares certificates for two-letter matrix word sums.

The package expands the sum of all length-p words with r B letters into
cyclic trace classes, verifies Hermitian-square certificates for those
sums exactly over the Gaussian rationals, searches for new certificates
over a fixed sandwich ansatz, and cross-validates everything against
floating-point word-sum traces on random positive semidefinite matrices.

Each module lists its public names in its own ``__all__``; the package
republishes them, and loads a module on first use of one of its names
(PEP 562).  The exact layer (``rational``, ``words``, ``certificate``)
and ``options`` import no numpy, so expanding and verifying never load
it; a name of ``numeric``, ``search`` or ``validation`` loads numpy with
its module.  Reading ``__all__`` or ``dir()`` loads every module.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ the package republishes, numpy-free ones first
_PUBLIC = ("rational", "words", "certificate", "options", "numeric", "search", "validation")
_SUBMODULES = frozenset(_PUBLIC) | {"cli", "kernels"}


def _module(name):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name in _SUBMODULES:
        return _module(name)
    if name == "__all__":
        names = [*(n for m in _PUBLIC for n in _module(m).__all__), "__version__"]
        globals()["__all__"] = names
        return names
    if not name.startswith("_"):
        for module_name in _PUBLIC:
            module = _module(module_name)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES})
