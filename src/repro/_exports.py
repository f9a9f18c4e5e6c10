"""A package's public names, resolved on first use (PEP 562).

Every package ``__init__`` under :mod:`repro` is one call of
:func:`export_table`: importing a package imports none of its
submodules, so a process pays for the modules its verb runs
(``python -m repro watch`` never loads the parser) and
``from repro.x import Y`` still works for every ``Y`` it always did.
"""

import sys
import types
from typing import Any, Callable, Dict, List, Sequence, Tuple


def export_table(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``table`` maps a module, named as a ``from .module import`` in the
    package would name it (``"gateway"``, ``"aws.provider"``,
    ``".deploy.executor"`` for a sibling package's), to the names it
    defines for the package. A name is imported when first asked for
    and then bound in the package, so the second lookup is a plain
    attribute. The submodules themselves answer too --
    ``repro.lang.parser`` after a bare ``import repro.lang`` -- as they
    did when every ``__init__`` imported them.
    """
    namespace = vars(sys.modules[package])
    home = {name: module for module, names in table.items() for name in names}
    submodules = {module.partition(".")[0] for module in table} - {""}

    def __getattr__(name: str) -> Any:
        if name in home:
            # ``from .module import name``, as the statement does it:
            # ``importlib.import_module`` is a second implementation
            # that ``-X importtime`` does not account for
            module = home[name]
            tail = module.lstrip(".")
            level = 1 + len(module) - len(tail)
            value = getattr(__import__(tail, namespace, None, (name,), level), name)
            namespace[name] = value
            return value
        if name in submodules:
            __import__(f"{package}.{name}")
            return sys.modules[f"{package}.{name}"]
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted({*namespace, *home, *submodules})

    return sorted(home), __getattr__, __dir__


def callable_module(module: str, function: str) -> None:
    """Make the module named ``module`` answer calls as its attribute
    ``function`` would. For a module that shares its name with a
    function exported beside it (``repro.validate``, ``chaos.library``):
    the import system binds a module on its parent whenever anything
    imports it, over whatever the parent held under that name, so
    which of the two a caller gets depends on import order. Called,
    both do the same."""

    class CallableModule(types.ModuleType):
        def __call__(self, *args: Any, **kwargs: Any) -> Any:
            return getattr(self, function)(*args, **kwargs)

    sys.modules[module].__class__ = CallableModule
