"""Module source resolution for CLC.

Module calls (``module "net" { source = "./network" ... }``) are
resolved through a :class:`ModuleLoader`. Loaders cache parsed
configurations so diamond-shaped module graphs parse once.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional, Union

from .diagnostics import CLCError

if TYPE_CHECKING:  # a loader parses when a module call asks it to
    from .config import Configuration


class ModuleNotFoundError_(CLCError):
    """Raised when a module source cannot be resolved."""


class ModuleLoader:
    """Base loader; subclasses implement :meth:`_load_uncached`."""

    def __init__(self) -> None:
        self._cache: Dict[str, Configuration] = {}

    def load(self, source: str) -> Configuration:
        if source not in self._cache:
            self._cache[source] = self._load_uncached(source)
        return self._cache[source]

    def _load_uncached(self, source: str) -> Configuration:
        raise NotImplementedError


class NullModuleLoader(ModuleLoader):
    """Refuses every module source; for configs without modules."""

    def _load_uncached(self, source: str) -> Configuration:
        raise ModuleNotFoundError_(
            f"module source {source!r} cannot be resolved (no loader configured)"
        )


class DictModuleLoader(ModuleLoader):
    """Resolves module sources from an in-memory registry.

    ``modules`` maps a source string to either a single CLC source text
    or a ``{filename: source}`` mapping.
    """

    def __init__(self, modules: Dict[str, Union[str, Dict[str, str]]]):
        super().__init__()
        self._modules = dict(modules)

    def register(self, source: str, text: Union[str, Dict[str, str]]) -> None:
        self._modules[source] = text
        self._cache.pop(source, None)

    def _load_uncached(self, source: str) -> Configuration:
        if source not in self._modules:
            raise ModuleNotFoundError_(f"module source {source!r} is not registered")
        from .config import Configuration

        entry = self._modules[source]
        if isinstance(entry, str):
            return Configuration.parse(entry, filename=f"{source}/main.clc")
        return Configuration.parse(entry)


class FileSystemModuleLoader(ModuleLoader):
    """Resolves relative module sources against a root directory.

    Each module directory contributes every ``*.clc`` file it contains.
    """

    def __init__(self, root: str):
        super().__init__()
        self.root = root

    def _load_uncached(self, source: str) -> Configuration:
        directory = os.path.normpath(os.path.join(self.root, source))
        if not os.path.isdir(directory):
            raise ModuleNotFoundError_(f"module directory {directory!r} not found")
        sources: Dict[str, str] = {}
        for fname in sorted(os.listdir(directory)):
            if fname.endswith(".clc") or fname.endswith(".tf"):
                path = os.path.join(directory, fname)
                with open(path, "r", encoding="utf-8") as handle:
                    sources[path] = handle.read()
        if not sources:
            raise ModuleNotFoundError_(
                f"module directory {directory!r} contains no .clc files"
            )
        from .config import Configuration

        return Configuration.parse(sources)
