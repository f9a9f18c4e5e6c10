"""Module-level evaluation context.

A :class:`ModuleContext` wires together everything an expression needs
to evaluate inside one module instance: variable values (defaults
applied, types coerced), lazily-evaluated locals with cycle detection,
resource/data values supplied by a :class:`ResourceResolver` (the
planner or applier), and child-module outputs.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .config import Configuration, ModuleCall
from .diagnostics import CLCEvalError, SourceSpan
from .evaluator import Evaluator, Scope
from .module_loader import ModuleLoader, NullModuleLoader
from .references import extract_references
from .values import UNKNOWN, Unknown, coerce_to_type

ModulePath = Tuple[str, ...]


class ResourceResolver:
    """Supplies resource/data values during evaluation.

    The default implementation returns :class:`Unknown` for everything,
    which is exactly what expression-level validation wants. Planners
    and appliers override :meth:`resolve`.
    """

    #: moves whenever :meth:`resolve` may answer differently than it
    #: did; values memoised from its answers (lazy locals, child-module
    #: inputs) are dropped when it has. A resolver whose answers never
    #: change never moves it.
    generation = 0

    def resolve(
        self,
        module_path: ModulePath,
        mode: str,
        rtype: str,
        name: str,
        span: Optional[SourceSpan] = None,
    ) -> Any:
        prefix = "data." if mode == "data" else ""
        mods = "".join(f"module.{m}." for m in module_path)
        return Unknown(f"{mods}{prefix}{rtype}.{name}")


class DeferredResolver(ResourceResolver):
    """Indirection slot: the graph builder installs this into module
    contexts, and the planner/applier later points ``target`` at a
    state-backed resolver. Until then everything is Unknown.

    Every context of a graph shares this one slot, so it carries the
    graph's ``generation``: pointing ``target`` somewhere moves it, and
    the bound resolver moves it (:meth:`touch`) when a commit, a data
    read or a pending replacement changes what it would say."""

    def __init__(self) -> None:
        self._target: Optional[ResourceResolver] = None
        self.generation = 0

    @property
    def target(self) -> Optional[ResourceResolver]:
        return self._target

    @target.setter
    def target(self, resolver: Optional[ResourceResolver]) -> None:
        self._target = resolver
        self.generation += 1

    def touch(self) -> None:
        self.generation += 1

    def resolve(self, module_path, mode, rtype, name, span=None):
        if self._target is not None:
            return self._target.resolve(module_path, mode, rtype, name, span)
        return super().resolve(module_path, mode, rtype, name, span)


class StaticResolver(ResourceResolver):
    """Resolver backed by a plain dict of ``address text -> value``."""

    def __init__(self, values: Dict[str, Any]):
        self.values = dict(values)

    def resolve(self, module_path, mode, rtype, name, span=None):
        prefix = "data." if mode == "data" else ""
        mods = "".join(f"module.{m}." for m in module_path)
        key = f"{mods}{prefix}{rtype}.{name}"
        if key in self.values:
            return self.values[key]
        return Unknown(key)


class _KeyedMapping(Mapping):
    """Read-only mapping that computes values on access."""

    def __init__(self, keys: List[str], fetch: Callable[[str], Any], what: str):
        self._keys = list(keys)
        self._keyset = frozenset(self._keys)
        self._fetch = fetch
        self._what = what

    def __getitem__(self, key: str) -> Any:
        if key not in self._keyset:
            raise KeyError(key)
        return self._fetch(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self._what} {self._keys!r}>"


class _LazyLocals(Mapping):
    """Locals evaluated on first access, with cycle detection.

    A value is memoised for as long as the resolver that answered it
    would answer the same (its ``generation``): a local over a resource
    is Unknown while validating, the state's value while planning and
    the committed value once the executor has created the resource."""

    def __init__(self, ctx: "ModuleContext"):
        self._ctx = ctx
        self._cache: Dict[str, Any] = {}
        self._generation = ctx.resolver.generation
        self._in_progress: set = set()

    def __getitem__(self, name: str) -> Any:
        cfg = self._ctx.config
        if name not in cfg.locals:
            raise KeyError(name)
        generation = self._ctx.resolver.generation
        if generation != self._generation:
            self._cache.clear()
            self._generation = generation
        if name in self._cache:
            return self._cache[name]
        if name in self._in_progress:
            raise CLCEvalError(
                f"local.{name} is self-referential (dependency cycle)",
                cfg.locals[name].span,
            )
        self._in_progress.add(name)
        try:
            value = Evaluator(self._ctx.scope()).evaluate(cfg.locals[name].expr)
        finally:
            self._in_progress.discard(name)
        self._cache[name] = value
        return value

    def __iter__(self) -> Iterator[str]:
        return iter(self._ctx.config.locals)

    def __len__(self) -> int:
        return len(self._ctx.config.locals)


class ModuleContext:
    """Evaluation context for one module instance."""

    def __init__(
        self,
        config: Configuration,
        variables: Optional[Dict[str, Any]] = None,
        module_path: ModulePath = (),
        loader: Optional[ModuleLoader] = None,
        resolver: Optional[ResourceResolver] = None,
        inputs: Optional[Tuple["ModuleContext", ModuleCall]] = None,
    ):
        self.config = config
        self.module_path = module_path
        self.loader = loader or NullModuleLoader()
        self.resolver = resolver or ResourceResolver()
        #: ``(calling context, call)`` of a child module whose arguments
        #: read resources: its variables are ``variables`` until the
        #: resolver's generation moves, then the call's arguments again
        self._inputs = inputs
        self._variables = self._finalize_variables(variables or {})
        self._variables_generation = self.resolver.generation
        self._locals = _LazyLocals(self)
        self._module_outputs: Dict[str, Any] = {}
        self._children: Dict[str, ModuleContext] = {}
        # resource-type -> sorted names, built lazily: root resolution
        # runs once per identifier per expression, so scanning all
        # resource declarations there is quadratic at estate scale
        self._managed_names_by_type: Optional[Dict[str, List[str]]] = None
        # resource-type -> (mapping, span cell): the per-type keyed
        # mapping is immutable apart from the span used in error
        # reporting, so rebuilding its name list + keyset per reference
        # evaluation (O(names of that type) each) was the second
        # quadratic cost at estate scale
        self._managed_maps: Dict[str, Tuple[Mapping, List[Any]]] = {}

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        # the keyed-mapping caches close over bound lambdas and the
        # lazy-locals cache can hold such mappings; all three are
        # rebuilt on demand, so the compiled-artifact cache drops them
        state = self.__dict__.copy()
        state["_managed_names_by_type"] = None
        state["_managed_maps"] = {}
        state["_locals"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._locals = _LazyLocals(self)

    # -- variables ----------------------------------------------------------

    @property
    def variables(self) -> Dict[str, Any]:
        """Input values, finalised (defaults, coercion, ``validation``
        rules). The root module's are fixed; a child's follow the same
        memo rule as locals when its call's arguments read resources."""
        if self._inputs is not None:
            generation = self.resolver.generation
            if generation != self._variables_generation:
                parent, call = self._inputs
                self._variables = self._finalize_variables(
                    parent._call_arguments(call)
                )
                self._variables_generation = generation
        return self._variables

    def _call_arguments(self, call: ModuleCall) -> Dict[str, Any]:
        evaluator = Evaluator(self.scope())
        return {
            name: evaluator.evaluate(attr.expr)
            for name, attr in call.body.attributes.items()
        }

    def _follows_resolver(self, expr: Any, seen: Optional[set] = None) -> bool:
        """Whether ``expr`` can evaluate differently once the resolver
        answers differently: it reads a resource, a data source or a
        module output -- directly, through a local, or through an
        input of this module that itself does."""
        seen = set() if seen is None else seen
        for ref in extract_references(expr):
            if ref.kind in ("resource", "data", "module"):
                return True
            if ref.kind == "var" and self._inputs is not None:
                return True
            if ref.kind == "local" and ref.name not in seen:
                seen.add(ref.name)
                attr = self.config.locals.get(ref.name)
                if attr is not None and self._follows_resolver(attr.expr, seen):
                    return True
        return False

    def _finalize_variables(self, given: Dict[str, Any]) -> Dict[str, Any]:
        values: Dict[str, Any] = {}
        for name, decl in self.config.variables.items():
            if name in given:
                raw = given[name]
            elif decl.default is not None:
                raw = Evaluator(Scope(bindings={})).evaluate(decl.default)
            else:
                raise CLCEvalError(
                    f"required variable {name!r} was not provided", decl.span
                )
            try:
                values[name] = coerce_to_type(
                    raw, decl.type_constraint, path=f"var.{name}"
                )
            except TypeError as exc:
                raise CLCEvalError(str(exc), decl.span)
        extra = set(given) - set(self.config.variables)
        if extra:
            raise CLCEvalError(
                f"unknown variable(s) provided: {', '.join(sorted(extra))}"
            )
        # custom validation rules (variable { validation { ... } })
        scope = Scope(bindings={"var": values})
        for name, decl in self.config.variables.items():
            for rule in decl.validations:
                verdict = Evaluator(scope).evaluate(rule.condition)
                if verdict is False:
                    raise CLCEvalError(
                        f"var.{name}: {rule.error_message}", rule.span
                    )
        return values

    # -- scope / root resolution ---------------------------------------------

    def scope(self, bindings: Optional[Dict[str, Any]] = None) -> Scope:
        base = Scope(resolver=self._resolve_root)
        if bindings:
            return base.child(bindings)
        return base

    def evaluator(self, bindings: Optional[Dict[str, Any]] = None) -> Evaluator:
        return Evaluator(self.scope(bindings))

    def _resolve_root(self, name: str, span: Optional[SourceSpan]) -> Any:
        if name == "var":
            return self.variables
        if name == "local":
            return self._locals
        if name == "data":
            return self._data_root()
        if name == "module":
            return self._module_root()
        if name == "path":
            return {"module": ".", "root": ".", "cwd": "."}
        if self._managed_names_by_type is None:
            by_type: Dict[str, List[str]] = {}
            for r in self.config.resources.values():
                if r.mode == "managed":
                    by_type.setdefault(r.type, []).append(r.name)
            for names in by_type.values():
                names.sort()
            self._managed_names_by_type = by_type
        managed_names = self._managed_names_by_type.get(name)
        if managed_names:
            entry = self._managed_maps.get(name)
            if entry is None:
                span_cell: List[Any] = [span]
                mapping = _KeyedMapping(
                    managed_names,
                    lambda n, t=name, c=span_cell: self.resolver.resolve(
                        self.module_path, "managed", t, n, c[0]
                    ),
                    f"resources:{name}",
                )
                self._managed_maps[name] = (mapping, span_cell)
            else:
                mapping, span_cell = entry
                span_cell[0] = span
            return mapping
        raise CLCEvalError(f"unknown identifier {name!r}", span)

    def _data_root(self) -> Mapping:
        types = sorted(
            {r.type for r in self.config.resources.values() if r.mode == "data"}
        )

        def fetch_type(rtype: str) -> Mapping:
            names = sorted(
                r.name
                for r in self.config.resources.values()
                if r.mode == "data" and r.type == rtype
            )
            return _KeyedMapping(
                names,
                lambda n: self.resolver.resolve(
                    self.module_path, "data", rtype, n, None
                ),
                f"data:{rtype}",
            )

        return _KeyedMapping(types, fetch_type, "data")

    def _module_root(self) -> Mapping:
        names = sorted(self.config.module_calls)
        return _KeyedMapping(names, self._module_outputs_for, "modules")

    # -- child modules -----------------------------------------------------

    def child_context(self, call_name: str) -> "ModuleContext":
        """The evaluation context of a (cached) child module instance."""
        if call_name in self._children:
            return self._children[call_name]
        call = self.config.module_calls.get(call_name)
        if call is None:
            raise CLCEvalError(f"unknown module call {call_name!r}")
        if call.count is not None or call.for_each is not None:
            raise CLCEvalError(
                f"module {call_name!r}: count/for_each on modules is not supported",
                call.span,
            )
        child_cfg = self.loader.load(call.source)
        if child_cfg.diagnostics.has_errors():
            raise CLCEvalError(
                f"module {call_name!r} has configuration errors: "
                f"{child_cfg.diagnostics.errors[0].message}",
                call.span,
            )
        follows = any(
            self._follows_resolver(attr.expr)
            for attr in call.body.attributes.values()
        )
        ctx = ModuleContext(
            child_cfg,
            variables=self._call_arguments(call),
            module_path=self.module_path + (call_name,),
            loader=self.loader,
            resolver=self.resolver,
            inputs=(self, call) if follows else None,
        )
        self._children[call_name] = ctx
        return ctx

    def _module_outputs_for(self, call_name: str) -> Mapping:
        ctx = self.child_context(call_name)

        def fetch(output_name: str) -> Any:
            decl = ctx.config.outputs[output_name]
            return Evaluator(ctx.scope()).evaluate(decl.value)

        return _KeyedMapping(sorted(ctx.config.outputs), fetch, f"module.{call_name}")

    # -- outputs of *this* module -------------------------------------------

    def output_values(self) -> Dict[str, Any]:
        """Evaluate every output declared by this module."""
        out: Dict[str, Any] = {}
        for name, decl in self.config.outputs.items():
            out[name] = Evaluator(self.scope()).evaluate(decl.value)
        return out
