"""numpy, imported on first attribute read.

fvkit modules take ``np`` from here.  Reading ``np.<name>`` the first time
imports numpy, copies its namespace into the proxy and turns the proxy
into a plain module, so every later read costs what a read on numpy itself
does, and a command that never reaches numpy never imports it.  Names the
real module binds after that first read come through its own module
``__getattr__``, if it has one.  No fvkit code may read ``np`` at import
time: not in a default argument, decorator argument, class body or module
constant.
"""
from __future__ import annotations

import importlib
import threading
import types

_load_lock = threading.Lock()


class _LazyModule(types.ModuleType):
    def __getattr__(self, attr):
        # Reached only while the class is still _LazyModule: the first reader
        # loads, and any thread that waited on the lock finds the copy done.
        with _load_lock:
            if type(self) is _LazyModule:
                self.__dict__.update(vars(importlib.import_module(self.__name__)))
                self.__class__ = types.ModuleType
        return getattr(self, attr)


def lazy_import(name: str) -> types.ModuleType:
    """A stand-in for ``import name`` that imports on first attribute read."""
    return _LazyModule(name)


np = lazy_import("numpy")
