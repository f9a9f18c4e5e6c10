"""Write-ahead intent journal for crash-safe applies.

The paper's §2.2 failure story: an interrupted ``apply`` leaves
resources that "neither the cloud nor the state file" fully describe.
The :class:`IntentJournal` closes that gap the way databases do --
before the executor dispatches any mutating cloud call it durably logs
an *intent* (change id, address, operation, idempotency token), and
logs a *commit* marker only after the result has landed in the state
document. A process that dies between those two writes leaves an open
intent; :mod:`repro.deploy.recovery` replays the journal on restart and
classifies every open intent against the live control plane.

Format: JSONL, one record per line, fsync-able, alongside the
``JournalStateStore`` delta journal from PR 3:

* ``{"rec": "run", "run_id": ..., "wal_version": 1}`` -- one per apply
  run; ``begin_run`` truncates the file first, so the journal only ever
  describes the latest run.
* ``{"rec": "intent", "iid": n, "cid": ..., "address": ..., "op": ...,
  "rtype": ..., "token": ..., "resource_id": ...}`` -- written *before*
  the operation is submitted. ``token`` is the idempotency token creates
  carry to the cloud; ``resource_id`` is the target of deletes/updates.
* ``{"rec": "commit", "iid": n, "resource_id": ...}`` -- written after
  the state commit for intent ``n``.
* ``{"rec": "abort", "iid": n, "error": ...}`` -- the run observed the
  operation fail terminally; the intent will not be retried by this run.

Replay is idempotent and tolerates a torn tail: a half-written final
line (the crash happened mid-append) is dropped and physically
truncated away, exactly like the state store's delta journal. Garbage
*before* the last line is real corruption and raises
:class:`WALCorruptError`.

Durability is configurable (``sync=``): ``"fsync"`` forces every record
to disk (media-crash safe), ``"flush"`` (default) pushes to the OS --
sufficient for the process-crash failure model this PR targets -- and
``"none"`` leaves buffering to the runtime (benchmark floor).
"""

from __future__ import annotations

import dataclasses
import json
import os
import uuid
from typing import Any, Dict, IO, List, Optional

WAL_VERSION = 1

SYNC_MODES = ("fsync", "flush", "none")

INTENT_OPEN = "open"
INTENT_COMMITTED = "committed"
INTENT_ABORTED = "aborted"


class SimulatedCrash(BaseException):
    """Raised by a crash hook to kill an apply at an event boundary.

    Derives from ``BaseException`` so no retry/cleanup layer inside the
    executor can swallow it -- a crashed process does not run handlers.
    """


class WALCorruptError(RuntimeError):
    """The intent journal has garbage before its final record."""


@dataclasses.dataclass
class IntentRecord:
    """One logged intent plus its observed outcome markers."""

    iid: int
    cid: str
    address: str
    op: str
    rtype: str
    token: str = ""
    resource_id: str = ""
    status: str = INTENT_OPEN  # open | committed | aborted
    committed_id: str = ""  # resource id recorded at commit time
    error: str = ""

    @property
    def open(self) -> bool:
        return self.status == INTENT_OPEN


class IntentJournal:
    """Append-only write-ahead log of apply intents."""

    def __init__(self, path: str, sync: str = "flush"):
        if sync not in SYNC_MODES:
            raise ValueError(f"sync must be one of {SYNC_MODES}, got {sync!r}")
        self.path = path
        self.sync = sync
        self.run_id: Optional[str] = None
        self._next_iid = 0
        self._records: Dict[int, IntentRecord] = {}
        self._handle: Optional[IO[str]] = None

    # -- writing -----------------------------------------------------------

    def _open(self, mode: str) -> IO[str]:
        if self._handle is not None:
            self._handle.close()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # a large buffer keeps non-durable marker appends out of the OS
        # until the next intent's flush barrier sweeps them along
        self._handle = open(
            self.path, mode, encoding="utf-8", buffering=1 << 20
        )
        return self._handle

    def _append(self, record: Dict[str, Any], durable: bool = True) -> None:
        handle = self._handle
        if handle is None:
            handle = self._open("a")
        handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        if self.sync == "none" or not durable:
            return
        handle.flush()
        if self.sync == "fsync":
            os.fsync(handle.fileno())

    def begin_run(self, run_id: Optional[str] = None) -> str:
        """Start a fresh apply run: truncate the journal, write the
        run header, and return the run id (the token namespace)."""
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self._next_iid = 0
        self._records = {}
        self._open("w")
        self._append({"rec": "run", "run_id": self.run_id, "wal_version": WAL_VERSION})
        return self.run_id

    def log_intent(
        self,
        cid: str,
        op: str,
        rtype: str,
        address: str = "",
        token: str = "",
        resource_id: str = "",
    ) -> int:
        if self.run_id is None:
            raise RuntimeError("no active run; call begin_run() first")
        iid = self._next_iid
        self._next_iid += 1
        record = IntentRecord(
            iid=iid,
            cid=cid,
            address=address or cid,
            op=op,
            rtype=rtype,
            token=token,
            resource_id=resource_id,
        )
        self._records[iid] = record
        # empty/derivable fields are omitted on disk; resume() fills the
        # same defaults back in
        line: Dict[str, Any] = {
            "rec": "intent",
            "iid": iid,
            "cid": cid,
            "op": op,
            "rtype": rtype,
        }
        if record.address != cid:
            line["address"] = record.address
        if token:
            line["token"] = token
        if resource_id:
            line["resource_id"] = resource_id
        self._append(line)
        return iid

    def log_commit(self, iid: int, resource_id: str = "") -> None:
        record = self._records.get(iid)
        if record is not None:
            record.status = INTENT_COMMITTED
            record.committed_id = resource_id
        # markers ride the buffer (durable=False): recovery probes the
        # cloud for every intent anyway, so a lost marker only changes
        # the classification label, never the repair -- but a lost
        # *intent* would orphan a resource, hence the barrier above
        self._append(
            {"rec": "commit", "iid": iid, "resource_id": resource_id},
            durable=False,
        )

    def log_abort(self, iid: int, error: str = "") -> None:
        record = self._records.get(iid)
        if record is not None:
            record.status = INTENT_ABORTED
            record.error = error
        self._append({"rec": "abort", "iid": iid, "error": error}, durable=False)

    def mark_clean(self) -> None:
        """The run completed and its state is durable: empty the journal
        (an empty journal means "nothing to recover")."""
        self.run_id = None
        self._next_iid = 0
        self._records = {}
        handle = self._handle
        if handle is None:
            handle = self._open("w")
        else:
            # the handle this run wrote through: markers still in its
            # buffer go to the file first, then the file is emptied --
            # the bytes a re-open for writing leaves, without the open
            handle.seek(0)
            handle.truncate()
        handle.flush()
        if self.sync == "fsync":
            os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- replay ------------------------------------------------------------

    @classmethod
    def resume(cls, path: str, sync: str = "flush") -> "IntentJournal":
        """Load an existing journal for recovery + continuation.

        Keeps the previous run id, so tokens minted by the resumed apply
        land in the same namespace the crashed run used -- a re-created
        change re-sends the *same* token and the cloud deduplicates it.
        Tolerates a torn final line (truncated away); raises
        :class:`WALCorruptError` on mid-file garbage.
        """
        journal = cls(path, sync=sync)
        if not os.path.exists(path):
            return journal
        with open(path, "rb") as handle:
            raw = handle.read()
        lines = raw.split(b"\n")
        parsed: List[Dict[str, Any]] = []
        valid_end = 0
        offset = 0
        for index, chunk in enumerate(lines):
            line_end = offset + len(chunk) + 1  # +1 for the newline
            stripped = chunk.strip()
            if stripped:
                try:
                    parsed.append(json.loads(stripped.decode("utf-8")))
                except (ValueError, UnicodeDecodeError):
                    tail = all(not c.strip() for c in lines[index + 1 :])
                    if not tail:
                        raise WALCorruptError(
                            f"{path}: unparseable record at line {index + 1} "
                            f"with valid records after it"
                        )
                    # torn final append: drop it and truncate it away so
                    # continued appends produce a well-formed journal
                    with open(path, "r+b") as trunc:
                        trunc.truncate(valid_end)
                    break
            valid_end = min(line_end, len(raw))
            offset = line_end
        for item in parsed:
            kind = item.get("rec")
            if kind == "run":
                journal.run_id = item.get("run_id")
                journal._next_iid = 0
                journal._records = {}
            elif kind == "intent":
                iid = int(item.get("iid", journal._next_iid))
                journal._records[iid] = IntentRecord(
                    iid=iid,
                    cid=item.get("cid", ""),
                    address=item.get("address", item.get("cid", "")),
                    op=item.get("op", ""),
                    rtype=item.get("rtype", ""),
                    token=item.get("token", ""),
                    resource_id=item.get("resource_id", ""),
                )
                journal._next_iid = max(journal._next_iid, iid + 1)
            elif kind == "commit":
                record = journal._records.get(int(item.get("iid", -1)))
                if record is not None:
                    record.status = INTENT_COMMITTED
                    record.committed_id = item.get("resource_id", "")
            elif kind == "abort":
                record = journal._records.get(int(item.get("iid", -1)))
                if record is not None:
                    record.status = INTENT_ABORTED
                    record.error = item.get("error", "")
        return journal

    # -- introspection -----------------------------------------------------

    def records(self) -> List[IntentRecord]:
        return [self._records[iid] for iid in sorted(self._records)]

    def open_intents(self) -> List[IntentRecord]:
        return [r for r in self.records() if r.open]
