"""The persistent home of the golden state.

:class:`JournalStateStore` is a keyframe file plus an append-only
delta journal: each write persists only what changed since the last
write, and the journal is compacted into a fresh keyframe once it
grows past ``compact_threshold`` entries. Replay is idempotent
(deltas carry absolute serials and full entry values), so a crash
between compaction and journal truncation cannot corrupt the store.
"""

from __future__ import annotations

import json
import os
import tempfile
import uuid
from typing import List, Optional

from ..perf import PERF
from .document import StateDocument
from .snapshots import apply_doc_delta, doc_delta


class JournalStateStore:
    """Keyframe + append-only delta journal backend.

    Layout: ``path`` holds the last compacted keyframe (one
    ``StateDocument.to_json`` document); ``path + ".journal"``
    holds one JSON line per committed write, each an O(changed) delta
    against the previous write. ``read()`` replays the journal over the
    keyframe; ``write()`` appends a delta and compacts once the journal
    reaches ``compact_threshold`` lines.

    Crash tolerance: a torn *journal tail* (the process died mid-append)
    is dropped and truncated away; a torn *keyframe* (the process died
    mid-``os.replace``, or the file was corrupted at rest) falls back to
    the ``path + ".bak"`` copy compaction writes alongside it. Because
    deltas are idempotent (absolute serials, full entry values), every
    crash window -- before either keyframe write, between them, before
    the journal truncation -- replays to the same document.

    Ownership: two live engine instances appending to the same journal
    interleave deltas from different documents -- silent corruption.
    Passing ``owner`` claims an advisory marker (``path + ".owner"``)
    at construction; a second claimant gets a :class:`StoreOwnedError`
    naming the current owner instead. A marker whose recorded pid is
    dead is stale and reclaimed silently; ``steal=True`` takes over a
    live marker (legitimate only for a caller holding a newer session
    lease, e.g. a restarted service fencing out its zombie
    predecessor). ``owner=None`` skips the guard entirely, keeping
    single-owner callers untouched.
    """

    def __init__(
        self,
        path: str,
        compact_threshold: int = 64,
        owner: Optional[str] = None,
        steal: bool = False,
    ):
        self.path = path
        self.backup_path = path + ".bak"
        self.journal_path = path + ".journal"
        self.owner_path = path + ".owner"
        self.compact_threshold = max(1, compact_threshold)
        self._last: Optional[StateDocument] = None
        self._journal_len: Optional[int] = None
        self.owner = owner
        self._owner_token: Optional[str] = None
        if owner is not None:
            self._claim_owner(steal)

    # -- ownership ---------------------------------------------------------

    def _read_owner_marker(self) -> Optional[dict]:
        try:
            with open(self.owner_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except (PermissionError, OSError, OverflowError):
            return True  # exists but not ours (or unknowable): assume live
        return True

    def _claim_owner(self, steal: bool) -> None:
        marker = self._read_owner_marker()
        if marker is not None and not steal:
            pid = marker.get("pid")
            live = isinstance(pid, int) and self._pid_alive(pid)
            if live:
                raise StoreOwnedError(
                    f"owner marker {self.owner_path!r} is held by "
                    f"{marker.get('owner', '<unknown>')!r} (pid {pid}, "
                    f"alive); what it guards has one owner at a time. "
                    f"Release the other instance, or pass steal=True if "
                    f"it is a fenced-out zombie."
                )
        token = uuid.uuid4().hex
        directory = os.path.dirname(os.path.abspath(self.owner_path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    {"owner": self.owner, "pid": os.getpid(), "token": token},
                    handle,
                )
            os.replace(tmp_path, self.owner_path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        self._owner_token = token

    def release_owner(self) -> None:
        """Drop the advisory owner marker (if this instance holds it)."""
        if self._owner_token is None:
            return
        marker = self._read_owner_marker()
        if marker is not None and marker.get("token") == self._owner_token:
            try:
                os.unlink(self.owner_path)
            except OSError:
                pass
        self._owner_token = None

    def owns(self) -> bool:
        """Does this instance still hold the advisory marker?"""
        if self._owner_token is None:
            return False
        marker = self._read_owner_marker()
        return marker is not None and marker.get("token") == self._owner_token

    # -- reading -----------------------------------------------------------

    def _read_journal(self) -> List[dict]:
        if not os.path.exists(self.journal_path):
            return []
        with open(self.journal_path, "rb") as handle:
            raw = handle.read()
        entries: List[dict] = []
        lines = raw.split(b"\n")
        valid_end = 0
        offset = 0
        for index, chunk in enumerate(lines):
            line_end = offset + len(chunk) + 1
            stripped = chunk.strip()
            if stripped:
                try:
                    entries.append(json.loads(stripped.decode("utf-8")))
                except (ValueError, UnicodeDecodeError):
                    if any(c.strip() for c in lines[index + 1 :]):
                        raise
                    # torn final append: drop it and truncate it away so
                    # future appends produce a well-formed journal
                    with open(self.journal_path, "r+b") as trunc:
                        trunc.truncate(valid_end)
                    PERF.count("persist.torn_tail_recoveries")
                    break
            valid_end = min(line_end, len(raw))
            offset = line_end
        return entries

    def _read_keyframe(self) -> StateDocument:
        for candidate in (self.path, self.backup_path):
            if not os.path.exists(candidate):
                continue
            try:
                with open(candidate, "r", encoding="utf-8") as handle:
                    return StateDocument.from_json(handle.read())
            except (ValueError, KeyError):
                # torn/corrupt keyframe: fall through to the backup copy
                PERF.count("persist.keyframe_fallbacks")
                continue
        return StateDocument()

    def _load(self) -> StateDocument:
        doc = self._read_keyframe()
        journal = self._read_journal()
        for delta in journal:
            apply_doc_delta(doc, delta)
        self._journal_len = len(journal)
        return doc

    def read(self) -> StateDocument:
        if self._last is None:
            self._last = self._load()
        return self._last.copy()

    # -- writing -----------------------------------------------------------

    def write(self, doc: StateDocument) -> None:
        if self._last is None:
            self._last = self._load()
        if doc.serial < self._last.serial:
            raise StaleStateError(
                f"serial {doc.serial} is older than stored {self._last.serial}"
            )
        snapshot = doc.copy()
        delta = doc_delta(self._last, snapshot)
        directory = os.path.dirname(os.path.abspath(self.journal_path))
        os.makedirs(directory, exist_ok=True)
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(delta, sort_keys=True) + "\n")
            handle.flush()
        self._last = snapshot
        if self._journal_len is None:
            self._journal_len = 0
        self._journal_len += 1
        PERF.count("persist.journal_appends")
        if self._journal_len >= self.compact_threshold:
            self.compact()

    def compact(self) -> None:
        """Fold the journal into a fresh keyframe file.

        The keyframe is written twice -- atomically to ``path`` and then
        to ``path + ".bak"`` -- *before* the journal is truncated. Any
        single torn file is survivable: a torn primary reads from the
        backup (same content), a torn backup never matters until the
        primary is also damaged, and a crash before the truncation just
        replays the now-stale journal idempotently.
        """
        if self._last is None:
            self._last = self._load()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        payload = self._last.to_json()
        for target in (self.path, self.backup_path):
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                os.replace(tmp_path, target)
            except BaseException:
                if os.path.exists(tmp_path):
                    os.unlink(tmp_path)
                raise
        # safe even if we crash before this: replaying the stale journal
        # over the new keyframe is idempotent
        with open(self.journal_path, "w", encoding="utf-8"):
            pass
        self._journal_len = 0
        PERF.count("persist.compactions")


class StaleStateError(RuntimeError):
    """Write rejected because a newer state already exists."""


class StoreOwnedError(RuntimeError):
    """The store's owner marker is held by another live instance."""
