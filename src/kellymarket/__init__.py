"""Kelly betting on all-or-nothing contracts: optimal fractions, market
clearing for populations of log-utility bettors, binomial tail bounds on
finite-horizon growth, and a seeded Monte Carlo validator.

``import kellymarket`` loads none of the submodules.  A submodule, or one
of the names in ``__all__``, is imported on first access (PEP 562) and
then kept in the package namespace.  ``cli`` and the private submodules
are not searched for in the others, so each, like the four library
modules, imports only what it needs.  ``__all__`` is the sorted union of
the submodules' own ``__all__`` lists, so reading it, as
``from kellymarket import *`` and ``dir(kellymarket)`` do, imports all
four.
"""

import importlib

__version__ = "0.1.0"

# Searched in this order for a public name, the cheapest import first.
_SUBMODULES = ("kelly", "growth", "clearing", "montecarlo")


def __getattr__(name):
    if name in _SUBMODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = sorted(n for module in map(__getattr__, _SUBMODULES)
                       for n in module.__all__)
    else:
        # a private name is never public, and imports no submodule here
        search = () if name.startswith("_") else map(__getattr__, _SUBMODULES)
        for module in search:
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
