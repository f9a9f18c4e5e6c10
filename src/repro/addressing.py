"""Resource addressing.

Every configuration object and deployed resource instance is identified
by a :class:`ResourceAddress` -- the CLC analogue of a Terraform address
like ``module.net.aws_subnet.front[2]``. Addresses are the join key
between configuration, plans, state, locks, drift events, and policies.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional, Tuple, Union

InstanceKey = Optional[Union[int, str]]

MANAGED = "managed"
DATA = "data"

_INDEX_RE = re.compile(r"^(?P<base>.+?)\[(?P<key>[^\]]+)\]$")


@dataclasses.dataclass(frozen=True)
class ResourceAddress:
    """Fully-qualified address of one resource instance.

    ``module_path`` is the chain of module call names from the root.
    ``instance_key`` is ``None`` for single resources, an ``int`` under
    ``count``, or a ``str`` under ``for_each``.
    """

    type: str
    name: str
    module_path: Tuple[str, ...] = ()
    mode: str = MANAGED
    instance_key: InstanceKey = None

    def __post_init__(self) -> None:
        if self.mode not in (MANAGED, DATA):
            raise ValueError(f"invalid mode {self.mode!r}")

    # -- derived forms ---------------------------------------------------

    @property
    def config_address(self) -> "ResourceAddress":
        """The declaration this instance came from (no instance key)."""
        if self.instance_key is None:
            return self
        return dataclasses.replace(self, instance_key=None)

    def in_module(self, name: str) -> "ResourceAddress":
        """This address re-rooted one module deeper."""
        return dataclasses.replace(self, module_path=(name,) + self.module_path)

    def with_key(self, key: InstanceKey) -> "ResourceAddress":
        return dataclasses.replace(self, instance_key=key)

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        # Addresses are immutable and their text form is the join key
        # hashed all over the planner/executor/state hot paths; build it
        # once per instance instead of re-deriving on every use.
        cached = self.__dict__.get("_str")
        if cached is not None:
            return cached
        parts = []
        for mod in self.module_path:
            parts.append(f"module.{mod}")
        if self.mode == DATA:
            parts.append("data")
        parts.append(self.type)
        parts.append(self.name)
        text = ".".join(parts)
        if self.instance_key is not None:
            if isinstance(self.instance_key, int):
                text += f"[{self.instance_key}]"
            else:
                text += f'["{self.instance_key}"]'
        object.__setattr__(self, "_str", text)
        return text

    def __lt__(self, other: "ResourceAddress") -> bool:
        return self._sort_key() < other._sort_key()

    def _sort_key(self):
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        key = self.instance_key
        if key is None:
            key_tuple = (0, "")
        elif isinstance(key, int):
            key_tuple = (1, f"{key:012d}")
        else:
            key_tuple = (2, key)
        result = (self.module_path, self.mode, self.type, self.name, key_tuple)
        object.__setattr__(self, "_key", result)
        return result

    @classmethod
    def parse(cls, text: str) -> "ResourceAddress":
        """Parse the string form produced by ``__str__``."""
        instance_key: InstanceKey = None
        match = _INDEX_RE.match(text)
        if match:
            text = match.group("base")
            raw = match.group("key")
            if raw.startswith('"') and raw.endswith('"'):
                instance_key = raw[1:-1]
            else:
                try:
                    instance_key = int(raw)
                except ValueError:
                    raise ValueError(f"invalid instance key {raw!r}")
        parts = text.split(".")
        module_path = []
        i = 0
        while i + 1 < len(parts) and parts[i] == "module":
            module_path.append(parts[i + 1])
            i += 2
        mode = MANAGED
        if i < len(parts) and parts[i] == "data":
            mode = DATA
            i += 1
        remainder = parts[i:]
        if len(remainder) != 2:
            raise ValueError(f"cannot parse resource address {text!r}")
        rtype, rname = remainder
        # built without the frozen ``__init__``'s set per field: the
        # mode is one of the two it would check for
        address = object.__new__(cls)
        address.__dict__.update(
            type=rtype,
            name=rname,
            module_path=tuple(module_path),
            mode=mode,
            instance_key=instance_key,
        )
        return address


def managed(rtype: str, name: str, key: InstanceKey = None) -> ResourceAddress:
    """Shorthand for a root-module managed resource address."""
    return ResourceAddress(type=rtype, name=name, instance_key=key)


def data(rtype: str, name: str, key: InstanceKey = None) -> ResourceAddress:
    """Shorthand for a root-module data source address."""
    return ResourceAddress(type=rtype, name=name, mode=DATA, instance_key=key)
