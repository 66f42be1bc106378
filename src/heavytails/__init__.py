"""Tail asymptotics of dependent heavy-tailed sums."""

import importlib

__version__ = "0.1.0"

_MODULES = ("cli", "convolution", "copulas", "counting", "diagnostics",
            "distributions", "errors", "experiments", "montecarlo", "risk",
            "rng")


def __getattr__(name):
    """heavytails.<module> imports that module on first access: a command
    imports only the modules it runs, and a caller holding the package can
    still reach every one."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
