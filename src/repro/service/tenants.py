"""Per-tenant estates: isolated engines, durable homes, fenced sessions.

Every tenant the service knows gets a *home* under the service root:

    <root>/tenants/<tenant>/world.json   -- the engine's world, the one
                                            durable copy (repro.persist)
    <root>/tenants/<tenant>/state.json.owner  -- advisory owner marker
    <root>/tenants/<tenant>/wal          -- intent journal for resume

A :class:`TenantSession` is one service instance's live handle on that
home: a private :class:`~repro.core.engine.CloudlessEngine` (no shared
mutable state with any other tenant -- the isolation property the bench
checks byte-for-byte) plus a TTL session lease on the process-wide
*coordination plane*, a :class:`~repro.state.ResourceLockManager`
keyed by the service root. The lease's fencing token is the zombie
detector: a service instance that was killed and superseded still holds
an engine object, but every mutating op re-validates its token first
and comes back ``stale-session`` instead of corrupting the estate a
newer instance now owns. This is the PR 4 lease-fencing machinery
reused one level up -- sessions instead of transactions.

Crash realism: ``kill()`` persists the world but deliberately leaves
the session lease and the store's owner marker in place, exactly the
debris a SIGKILL'd process leaves. The restarting instance takes over
with ``preempt=True`` (bumps the fencing token past the zombie's) and
``steal=True`` on the store marker, then runs ``resume`` to adopt
whatever the dead instance's in-flight applies had provisioned.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from ..core.engine import CloudlessEngine
from ..persist import load_world, save_world
from ..state.locks import LockGrant, ResourceLockManager
from ..state.store import JournalStateStore, StoreOwnedError

#: default session-lease TTL; long against op latency, short against
#: operator reaction time -- the window a zombie can linger unfenced
SESSION_TTL_S = 30.0

#: simulated coordination planes, one per service root. Module-level so
#: two ControlPlaneService instances over the same root (an old one and
#: its restart) contend on the same lock table, the way two real
#: replicas contend on one etcd.
_COORDINATION_PLANES: Dict[str, ResourceLockManager] = {}


def coordination_plane(root: str) -> ResourceLockManager:
    key = os.path.realpath(root)
    plane = _COORDINATION_PLANES.get(key)
    if plane is None:
        plane = ResourceLockManager()
        _COORDINATION_PLANES[key] = plane
    return plane


class SessionFencedError(RuntimeError):
    """The tenant's session lease is held by (or lost to) another instance."""


class TenantHome:
    """Path bookkeeping for one tenant's durable estate."""

    def __init__(self, root: str, tenant: str):
        if not tenant or any(ch in tenant for ch in "/\\.:"):
            raise ValueError(f"invalid tenant id {tenant!r}")
        self.tenant = tenant
        self.path = os.path.join(root, "tenants", tenant)
        self.world_path = os.path.join(self.path, "world.json")
        self.state_path = os.path.join(self.path, "state.json")
        self.wal_path = os.path.join(self.path, "wal")

    def exists(self) -> bool:
        return os.path.exists(self.world_path)


class TenantSession:
    """One service instance's fenced, persistent handle on a tenant."""

    def __init__(
        self,
        home: TenantHome,
        engine: CloudlessEngine,
        store: JournalStateStore,
        plane: ResourceLockManager,
        grant: LockGrant,
        ttl_s: float,
    ):
        self.home = home
        self.engine = engine
        self.store = store
        self.plane = plane
        self.grant = grant
        self.ttl_s = ttl_s
        self.closed = False

    # -- construction -------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str,
        tenant: str,
        instance: str,
        now: float,
        seed: int = 0,
        ttl_s: float = SESSION_TTL_S,
        preempt: bool = False,
    ) -> "TenantSession":
        """Acquire the session lease and load (or create) the estate.

        ``preempt=True`` is the restart path: evict whatever holder the
        coordination plane still records (a dead instance's lease
        debris) and take over with a strictly higher fencing token.
        """
        home = TenantHome(root, tenant)
        plane = coordination_plane(root)
        key = f"session/{tenant}"
        holder = f"{tenant}@{instance}"
        grant = plane.try_acquire(holder, {key}, now, ttl=ttl_s)
        if grant is None and preempt:
            for conflicting in plane.conflicts_with({key}, now):
                plane.release(conflicting)
            grant = plane.try_acquire(holder, {key}, now, ttl=ttl_s)
        if grant is None:
            blockers = sorted(plane.conflicts_with({key}, now))
            raise SessionFencedError(
                f"tenant {tenant!r} session held by {blockers}"
            )
        try:
            # held for its owner marker only: nothing is read or written
            # through it, the world file is the tenant's one durable copy
            store = JournalStateStore(
                home.state_path, owner=holder, steal=preempt
            )
        except StoreOwnedError as exc:
            # the lease had lapsed but the marker's owner is alive: the
            # estate is another instance's, which is what fenced means
            plane.release(holder, grant.fencing_token)
            raise SessionFencedError(
                f"tenant {tenant!r} estate is owned elsewhere: {exc}"
            ) from exc
        except BaseException:
            plane.release(holder, grant.fencing_token)
            raise
        if home.exists():
            engine = load_world(home.world_path)
        else:
            os.makedirs(home.path, exist_ok=True)
            engine = CloudlessEngine(seed=seed)
        # load_world does not restore wal_path (the CLI re-points it per
        # invocation); a session always journals into the tenant home.
        engine.wal_path = home.wal_path
        # a session serves many ops: its engine builds its clouds at
        # open, not inside the first op that calls them
        engine.resilient  # the gateway and the health ledger with it
        return cls(home, engine, store, plane, grant, ttl_s)

    # -- fencing ------------------------------------------------------------

    def live(self, now: float) -> bool:
        return not self.closed and self.plane.check_fence(
            self.grant.holder, self.grant.fencing_token, now
        )

    def ensure_live(self, now: float) -> None:
        """Zombie gate: every mutating op calls this before touching state."""
        if not self.live(now):
            raise SessionFencedError(
                f"session for {self.home.tenant!r} lost its lease "
                f"(token {self.grant.fencing_token})"
            )

    def renew(self, now: float) -> bool:
        if self.closed:
            return False
        return self.plane.renew(self.grant.holder, now, self.ttl_s) is not None

    # -- persistence --------------------------------------------------------

    def persist(self) -> None:
        """The one durable write: a delta appended to the world file."""
        save_world(self.engine, self.home.world_path)

    def close(self, now: float) -> None:
        """Graceful shutdown: persist, then surrender lease and marker."""
        if self.closed:
            return
        self.persist()
        self.store.release_owner()
        self.plane.release(self.grant.holder, self.grant.fencing_token)
        self.closed = True

    def kill(self) -> None:
        """Simulated crash: persist the world, abandon lease and marker.

        Mirrors what a SIGKILL leaves behind -- the coordination plane
        still shows this instance holding the session, the store's
        owner marker still names it. Only a ``preempt``/``steal``
        takeover (or lease expiry) clears the debris.
        """
        if self.closed:
            return
        self.engine.gateway.settle_inflight()
        self.persist()
        self.closed = True

    # -- introspection ------------------------------------------------------

    @property
    def tenant(self) -> str:
        return self.home.tenant

    def describe(self) -> Dict[str, object]:
        """``plan_scope_nodes`` of ``graph_nodes``: how many addresses
        the session's last plan had to diff -- the blast radius of the
        last edit (both ``None`` until this session has planned).
        ``validated_declarations`` of ``declarations``: how many the
        last validation had to type-check afresh (``None`` until this
        session has validated)."""
        scope, graph = self.engine.last_plan_scope or (None, None)
        checked, declared = self.engine.last_validation_scope or (None, None)
        return {
            "tenant": self.tenant,
            "holder": self.grant.holder,
            "fencing_token": self.grant.fencing_token,
            "resources": len(self.engine.state),
            "graph_nodes": graph,
            "plan_scope_nodes": scope,
            "declarations": declared,
            "validated_declarations": checked,
        }
