"""Runtime value model for CLC expressions.

CLC values map onto plain Python objects (``str``, ``int``, ``float``,
``bool``, ``None``, ``list``, ``dict``) plus one extra citizen:
:class:`Unknown`, the "value not known until apply" marker that lets the
planner reason about configurations whose attributes depend on
yet-to-be-created cloud resources (e.g. ``aws_network_interface.n1.id``
in Figure 2 of the paper).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


class Unknown:
    """Placeholder for a value computed only at apply time.

    Unknowns carry an optional ``origin`` (the resource address whose
    creation will produce the value) so impact analysis can trace which
    pending resource a value depends on.
    """

    __slots__ = ("origin",)

    def __init__(self, origin: str = ""):
        self.origin = origin

    def __repr__(self) -> str:
        return f"Unknown({self.origin!r})" if self.origin else "Unknown()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Unknown) and other.origin == self.origin

    def __hash__(self) -> int:
        return hash(("Unknown", self.origin))


UNKNOWN = Unknown()


def is_unknown(value: Any) -> bool:
    """True if ``value`` is or *contains* an unknown."""
    if isinstance(value, Unknown):
        return True
    if isinstance(value, list):
        return any(is_unknown(v) for v in value)
    if isinstance(value, dict):
        return any(is_unknown(v) for v in value.values())
    return False


#: the types :func:`is_plain` takes as they are
_ATOMS = frozenset({type(None), str, int, float, bool, Unknown})


def is_plain(value: Any) -> bool:
    """Whether ``value`` is data through and through: ``None``, text,
    numbers, unknowns, and lists and dicts of them -- those very types,
    not a mapping or sequence of some other kind."""
    stack = [value]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is dict:
            stack.extend(item.values())
        elif kind is list:
            stack.extend(item)
        elif kind not in _ATOMS:
            return False
    return True


def collect_unknown_origins(value: Any) -> set:
    """Every ``Unknown.origin`` reachable inside ``value``."""
    found: set = set()
    if isinstance(value, Unknown):
        if value.origin:
            found.add(value.origin)
    elif isinstance(value, list):
        for item in value:
            found |= collect_unknown_origins(item)
    elif isinstance(value, dict):
        for item in value.values():
            found |= collect_unknown_origins(item)
    return found


def type_name(value: Any) -> str:
    """CLC-level type name of a runtime value."""
    if isinstance(value, Unknown):
        return "unknown"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "list"
    from collections.abc import Mapping

    if isinstance(value, Mapping):
        return "map"
    return type(value).__name__


def truthy(value: Any) -> bool:
    """CLC truthiness: only booleans may be used as conditions."""
    if isinstance(value, bool):
        return value
    raise TypeError(f"condition must be bool, got {type_name(value)}")


def to_string(value: Any) -> str:
    """Convert a value for string interpolation."""
    if isinstance(value, Unknown):
        return "(known after apply)"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def deep_copy_value(value: Any) -> Any:
    """Structural copy; Unknowns are shared (they are immutable)."""
    if isinstance(value, list):
        return [deep_copy_value(v) for v in value]
    if isinstance(value, dict):
        return {k: deep_copy_value(v) for k, v in value.items()}
    return value


def values_equal(a: Any, b: Any) -> bool:
    """Deep structural equality with number coercion (1 == 1.0)."""
    if type(a) is str or type(b) is str:  # (the common case, decided here)
        return a == b
    if isinstance(a, Unknown) or isinstance(b, Unknown):
        return a == b
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(values_equal(a[k], b[k]) for k in a)
    return a == b


def coerce_to_type(value: Any, want: str, *, path: str = "value") -> Any:
    """Coerce ``value`` to the named CLC type constraint.

    ``want`` is one of ``string | number | bool | list | map | any``
    (optionally ``list(string)`` etc. -- the element type is checked
    shallowly). Raises ``TypeError`` on an impossible coercion.
    """
    if isinstance(value, Unknown) or want == "any" or not want:
        return value
    base, elem = want, None
    if "(" in want and want.endswith(")"):
        base, elem = want[: want.index("(")], want[want.index("(") + 1 : -1]
    if base == "string":
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return to_string(value)
        raise TypeError(f"{path}: cannot convert {type_name(value)} to string")
    if base == "number":
        if isinstance(value, bool):
            raise TypeError(f"{path}: cannot convert bool to number")
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                try:
                    return float(value)
                except ValueError:
                    raise TypeError(f"{path}: cannot convert {value!r} to number")
        raise TypeError(f"{path}: cannot convert {type_name(value)} to number")
    if base == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value in ("true", "false"):
            return value == "true"
        raise TypeError(f"{path}: cannot convert {type_name(value)} to bool")
    if base in ("list", "set", "tuple"):
        if not isinstance(value, list):
            raise TypeError(f"{path}: cannot convert {type_name(value)} to list")
        if elem:
            return [
                coerce_to_type(v, elem, path=f"{path}[{i}]")
                for i, v in enumerate(value)
            ]
        return value
    if base in ("map", "object"):
        if not isinstance(value, dict):
            raise TypeError(f"{path}: cannot convert {type_name(value)} to map")
        if elem:
            return {
                k: coerce_to_type(v, elem, path=f"{path}.{k}")
                for k, v in value.items()
            }
        return value
    raise TypeError(f"{path}: unknown type constraint {want!r}")
