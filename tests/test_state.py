"""State document, stores, snapshots, locks, transactions."""

import pytest

from repro.addressing import ResourceAddress, managed
from repro.state import (
    GlobalLockManager,
    ResourceLockManager,
    ResourceState,
    SerializabilityChecker,
    SnapshotHistory,
    StaleStateError,
    StateDatabase,
    StateDocument,
    TransactionError,
)


def entry(addr_text, rid="r-1", attrs=None):
    return ResourceState(
        address=ResourceAddress.parse(addr_text),
        resource_id=rid,
        provider="aws",
        attrs=attrs or {"name": "x"},
        region="us-east-1",
    )


class TestAddressing:
    def test_round_trip(self):
        cases = [
            "aws_vpc.main",
            "aws_vm.web[3]",
            'aws_vm.web["blue"]',
            "data.aws_region.current",
            "module.net.aws_subnet.front[0]",
            "module.a.module.b.azure_disk.d",
        ]
        for text in cases:
            assert str(ResourceAddress.parse(text)) == text

    def test_config_address_strips_key(self):
        addr = managed("aws_vm", "web", 3)
        assert str(addr.config_address) == "aws_vm.web"

    def test_ordering(self):
        a = managed("aws_vm", "web", 1)
        b = managed("aws_vm", "web", 10)
        assert a < b  # numeric, not lexicographic

    def test_invalid(self):
        with pytest.raises(ValueError):
            ResourceAddress.parse("justonepart")


class TestStateDocument:
    def test_set_get_remove(self):
        doc = StateDocument()
        doc.set(entry("aws_vpc.main"))
        assert doc.get(ResourceAddress.parse("aws_vpc.main")) is not None
        assert len(doc) == 1
        doc.remove(ResourceAddress.parse("aws_vpc.main"))
        assert len(doc) == 0

    def test_instances_of(self):
        doc = StateDocument()
        doc.set(entry("aws_vm.web[1]", "r-b"))
        doc.set(entry("aws_vm.web[0]", "r-a"))
        doc.set(entry("aws_vm.other", "r-c"))
        instances = doc.instances_of("aws_vm", "web")
        assert [e.resource_id for e in instances] == ["r-a", "r-b"]

    def test_by_resource_id(self):
        doc = StateDocument()
        doc.set(entry("aws_vpc.main", "vpc-7"))
        assert doc.by_resource_id("vpc-7").address.type == "aws_vpc"
        assert doc.by_resource_id("nope") is None

    def test_by_resource_id_index_tracks_mutations(self):
        doc = StateDocument()
        doc.set(entry("aws_vpc.main", "vpc-1"))
        doc.set(entry("aws_vm.web", "i-1"))
        assert doc.by_resource_id("i-1") is not None  # builds the index
        # overwrite with a new identity (replacement)
        doc.set(doc.get(ResourceAddress.parse("aws_vm.web")).replace(resource_id="i-2"))
        assert doc.by_resource_id("i-1") is None
        assert doc.by_resource_id("i-2").resource_id == "i-2"
        # removal drops the id
        doc.remove(ResourceAddress.parse("aws_vm.web"))
        assert doc.by_resource_id("i-2") is None
        assert doc.by_resource_id("vpc-1") is not None
        # copies answer the same lookups with fresh indexes
        assert doc.copy().by_resource_id("vpc-1").resource_id == "vpc-1"

    def test_by_resource_id_empty_id_falls_back_to_scan(self):
        doc = StateDocument()
        doc.set(entry("aws_vm.a", "i-1"))
        doc.set(entry("aws_vm.b", ""))  # mid-replacement checkpoint shape
        assert doc.by_resource_id("").address.name == "b"
        assert doc.by_resource_id("i-1").address.name == "a"

    def test_instances_of_index_tracks_mutations(self):
        doc = StateDocument()
        doc.set(entry("aws_vm.web[1]", "r-b"))
        doc.set(entry("aws_vm.web[0]", "r-a"))
        assert [e.resource_id for e in doc.instances_of("aws_vm", "web")] == [
            "r-a",
            "r-b",
        ]
        doc.set(entry("aws_vm.web[2]", "r-c"))
        doc.remove(ResourceAddress.parse("aws_vm.web[0]"))
        assert [e.resource_id for e in doc.instances_of("aws_vm", "web")] == [
            "r-b",
            "r-c",
        ]
        assert doc.instances_of("aws_vm", "other") == []

    def test_copy_is_o1_shared_until_write(self):
        doc = StateDocument()
        for i in range(50):
            doc.set(entry(f"aws_vm.v{i}", f"r-{i}"))
        dup = doc.copy()
        # shared entry map, shared (identical) entries
        assert dup.entries_map() is doc.entries_map()
        addr = ResourceAddress.parse("aws_vm.v0")
        assert dup.get(addr) is doc.get(addr)
        # first write on the copy unshares the map, not the entries
        dup.set(entry("aws_vm.new", "r-new"))
        assert dup.entries_map() is not doc.entries_map()
        assert dup.get(addr) is doc.get(addr)
        assert len(doc) == 50 and len(dup) == 51

    def test_copies_sort_their_addresses_once_between_them(self, monkeypatch):
        """A verb plans on a working copy and the copy is dropped: the
        order it sorted the addresses into must not be."""
        import builtins

        import repro.state.document as document

        sorts = []

        def counting(iterable, **kw):
            sorts.append(1)
            return builtins.sorted(iterable, **kw)

        monkeypatch.setattr(document, "sorted", counting, raising=False)
        doc = StateDocument()
        for i in range(5):
            doc.set(entry(f"aws_vm.v{i}", f"r-{i}"))
        first, second = doc.copy(), doc.copy()
        order = [str(a) for a in first.addresses()]
        assert len(sorts) == 1
        assert [str(e.address) for e in second.resources()] == order
        assert [str(a) for a in doc.addresses()] == order
        assert [str(a) for a in doc.copy().copy().addresses()] == order
        assert len(sorts) == 1
        # an update keeps the address set, and with it the order
        held = first.get(ResourceAddress.parse("aws_vm.v1"))
        first.set(held.replace(region="eu-west-1"))
        assert first.resources()[1].region == "eu-west-1"
        assert doc.resources()[1].region == "us-east-1" and len(sorts) == 1
        # a new or a removed address re-sorts that side only
        first.set(entry("aws_vm.v00", "r-00"))
        assert [str(a) for a in first.addresses()] == order[:1] + ["aws_vm.v00"] + order[1:]
        assert len(sorts) == 2
        assert [str(a) for a in second.addresses()] == order and len(sorts) == 2
        doc.remove(ResourceAddress.parse("aws_vm.v4"))
        assert [str(a) for a in doc.addresses()] == order[:-1] and len(sorts) == 3
        assert [str(a) for a in second.addresses()] == order and len(sorts) == 3
        assert len(first.addresses()) == 6 and len(sorts) == 3

    def test_json_round_trip(self):
        doc = StateDocument(serial=4)
        doc.set(entry("aws_vm.web[0]", attrs={"name": "w", "n": 2, "l": [1]}))
        doc.outputs["ip"] = "1.2.3.4"
        restored = StateDocument.from_json(doc.to_json())
        assert restored.serial == 4
        assert restored.outputs == {"ip": "1.2.3.4"}
        original = doc.get(ResourceAddress.parse("aws_vm.web[0]"))
        copy = restored.get(ResourceAddress.parse("aws_vm.web[0]"))
        assert copy.attrs == original.attrs

    def test_copies_are_isolated(self):
        doc = StateDocument()
        doc.set(entry("aws_vpc.main", attrs={"tags": {"a": 1}}))
        dup = doc.copy()
        stored = dup.get(ResourceAddress.parse("aws_vpc.main"))
        dup.set(stored.replace(attrs={"tags": {"a": 9}}))
        dup.remove(ResourceAddress.parse("aws_vpc.main")) is not None
        # mutations on the copy never reach the original
        assert doc.get(ResourceAddress.parse("aws_vpc.main")).attrs == {
            "tags": {"a": 1}
        }

    def test_stored_entries_are_sealed(self):
        from repro.state import ImmutableEntryError

        doc = StateDocument()
        doc.set(entry("aws_vpc.main"))
        stored = doc.get(ResourceAddress.parse("aws_vpc.main"))
        with pytest.raises(ImmutableEntryError):
            stored.attrs = {"name": "mutated"}
        with pytest.raises(ImmutableEntryError):
            stored.resource_id = "other"
        # replace() hands back a mutable successor sharing unchanged fields
        successor = stored.replace(region="eu-west-1")
        assert successor.region == "eu-west-1"
        assert successor.attrs is stored.attrs
        # copy() hands back a private deep copy
        private = stored.copy()
        private.attrs["name"] = "mine"
        assert stored.attrs["name"] == "x"


class TestSnapshots:
    def test_checkpoint_and_get(self):
        history = SnapshotHistory()
        doc = StateDocument()
        doc.set(entry("aws_vpc.main"))
        snap = history.checkpoint(doc, {"main.clc": "x"}, timestamp=1.0)
        assert snap.version == 1
        assert history.latest().version == 1
        assert len(history.get(1).state) == 1

    def test_snapshots_are_isolated(self):
        history = SnapshotHistory()
        doc = StateDocument()
        doc.set(entry("aws_vpc.main"))
        history.checkpoint(doc, {}, timestamp=1.0)
        doc.remove(ResourceAddress.parse("aws_vpc.main"))
        assert len(history.get(1).state) == 1

    def test_diff(self):
        history = SnapshotHistory()
        doc = StateDocument()
        doc.set(entry("aws_vpc.main"))
        history.checkpoint(doc, {}, timestamp=1.0)
        doc.set(entry("aws_vm.web[0]"))
        vpc = doc.get(ResourceAddress.parse("aws_vpc.main"))
        doc.set(vpc.replace(attrs={"name": "renamed"}))
        history.checkpoint(doc, {}, timestamp=2.0)
        diff = history.diff(1, 2)
        assert diff.added == ["aws_vm.web[0]"]
        assert diff.changed == ["aws_vpc.main"]
        assert diff.removed == []

    def test_diff_sees_replacement_with_identical_attrs(self):
        # a delete->create replacement lands the same attrs under a new
        # resource_id; the diff must report it as changed, not empty
        history = SnapshotHistory()
        doc = StateDocument()
        doc.set(entry("aws_vm.web", rid="i-old", attrs={"name": "x"}))
        history.checkpoint(doc, {}, timestamp=1.0)
        doc.remove(ResourceAddress.parse("aws_vm.web"))
        doc.set(entry("aws_vm.web", rid="i-new", attrs={"name": "x"}))
        history.checkpoint(doc, {}, timestamp=2.0)
        diff = history.diff(1, 2)
        assert diff.changed == ["aws_vm.web"]
        assert not diff.is_empty

    def test_config_hash_stability(self):
        history = SnapshotHistory()
        s1 = history.checkpoint(StateDocument(), {"a": "x"}, timestamp=0.0)
        s2 = history.checkpoint(StateDocument(), {"a": "x"}, timestamp=1.0)
        s3 = history.checkpoint(StateDocument(), {"a": "y"}, timestamp=2.0)
        assert s1.config_hash == s2.config_hash != s3.config_hash

    def test_missing_version(self):
        with pytest.raises(KeyError):
            SnapshotHistory().get(1)
        history = SnapshotHistory()
        history.checkpoint(StateDocument(), {}, timestamp=0.0)
        with pytest.raises(KeyError):
            history.diff(1, 2)

    def test_checkout_is_mutable_working_copy(self):
        history = SnapshotHistory()
        doc = StateDocument()
        doc.set(entry("aws_vpc.main", "vpc-1"))
        history.checkpoint(doc, {}, timestamp=1.0)
        working = history.checkout(1)
        working.remove(ResourceAddress.parse("aws_vpc.main"))
        # the snapshot itself is untouched
        assert len(history.get(1).state) == 1
        assert len(history.checkout(1)) == 1

    def test_delta_chain_reconstruction_across_keyframes(self):
        history = SnapshotHistory()
        doc = StateDocument()
        expected = []
        for i in range(10):
            doc.set(entry(f"aws_vm.v{i}", f"r-{i}", attrs={"step": i}))
            if i >= 3:
                doc.remove(ResourceAddress.parse(f"aws_vm.v{i - 3}"))
            doc.bump()
            history.checkpoint(doc, {}, timestamp=float(i))
            expected.append(doc.to_json())
        # an imported history holds no documents: every checkout below
        # is a true replay of the persisted delta chain
        restored = SnapshotHistory()
        restored.import_records(history.export_records(doc), doc, str)
        for i in reversed(range(10)):
            assert restored.checkout(i + 1).to_json() == expected[i], f"v{i + 1}"

    def test_export_import_records_round_trip(self):
        history = SnapshotHistory()
        doc = StateDocument()
        for i in range(8):
            doc.set(entry(f"aws_vm.v{i}", f"r-{i}"))
            doc.outputs["last"] = i
            doc.bump()
            history.checkpoint(doc, {"main.clc": f"v{i}"}, timestamp=float(i))
        texts = {}
        data = history.export_records(doc, texts=texts)
        # deltas really are deltas: the newest version is the live
        # state, every older one differs from its successor by one entry
        assert data[-1]["base"] == "state" and not data[-1]["delta"]["set"]
        assert all(
            len(d["delta"]["set"]) + len(d["delta"]["removed"]) <= 1 for d in data
        )
        # each distinct source file once, versions name it by content key
        assert sorted(texts.values()) == [f"v{i}" for i in range(8)]
        assert all(set(d["sources"].values()) <= set(texts) for d in data)
        restored = SnapshotHistory()
        restored.import_records(data, doc, texts.__getitem__)
        assert restored.versions() == history.versions()
        for v in history.versions():
            assert restored.checkout(v).to_json() == history.checkout(v).to_json()
            assert restored.get(v).config_sources == history.get(v).config_sources

    def test_import_materialises_nothing_until_asked(self):
        history = SnapshotHistory()
        doc = StateDocument()
        for i in range(6):
            doc.set(entry(f"aws_vm.v{i}", f"r-{i}"))
            doc.bump()
            history.checkpoint(doc, {}, timestamp=float(i))
        restored = SnapshotHistory()
        restored.import_records(history.export_records(doc), doc, str)
        assert all(record.doc is None for record in restored._records)
        assert len(restored.get(5).state) == 5
        # asking for v5 rebuilt v6 and v5, nothing older
        assert [r.doc is not None for r in restored._records] == [False] * 4 + [True] * 2

    def test_trim_keeps_version_numbers(self):
        history = SnapshotHistory()
        doc = StateDocument()
        for i in range(6):
            doc.set(entry(f"aws_vm.v{i}", f"r-{i}"))
            history.checkpoint(doc, {}, timestamp=float(i))
        assert history.trim(2) == 4
        assert history.versions() == [5, 6] and len(history) == 2
        assert len(history.get(5).state) == 5
        with pytest.raises(KeyError):
            history.get(4)
        # a trimmed history exports, imports and keeps counting from 7
        restored = SnapshotHistory()
        restored.import_records(history.export_records(doc), doc, str)
        assert restored.versions() == [5, 6]
        assert restored.checkpoint(doc, {}, timestamp=9.0).version == 7

    def test_import_rejects_a_chain_with_gaps(self):
        history = SnapshotHistory()
        doc = StateDocument()
        for i in range(3):
            history.checkpoint(doc, {}, timestamp=float(i))
        data = history.export_records(doc)
        with pytest.raises(ValueError, match="out of sequence"):
            SnapshotHistory().import_records([data[0], data[2]], doc, str)
        data[0]["base"] = 3
        with pytest.raises(ValueError, match="no base"):
            SnapshotHistory().import_records(data, doc, str)


class TestJournalStore:
    def _doc(self, n=3, serial=1):
        doc = StateDocument(serial=serial)
        for i in range(n):
            doc.set(entry(f"aws_vm.v{i}", f"r-{i}"))
        return doc

    def test_round_trip_and_journal_growth(self, tmp_path):
        from repro.state import JournalStateStore

        path = str(tmp_path / "state.json")
        store = JournalStateStore(path, compact_threshold=100)
        assert len(store.read()) == 0
        doc = self._doc(3, serial=1)
        store.write(doc)
        doc = doc.copy()
        doc.set(entry("aws_vm.v3", "r-3"))
        doc.bump()
        store.write(doc)
        # two appended deltas, no keyframe written yet
        journal = (tmp_path / "state.json.journal").read_text().splitlines()
        assert len(journal) == 2
        assert not (tmp_path / "state.json").exists()
        # a fresh store replays the journal
        fresh = JournalStateStore(path)
        assert fresh.read().to_json() == doc.to_json()

    def test_compaction_folds_journal_into_keyframe(self, tmp_path):
        from repro.state import JournalStateStore

        path = str(tmp_path / "state.json")
        store = JournalStateStore(path, compact_threshold=3)
        doc = StateDocument()
        for i in range(7):
            doc = doc.copy()
            doc.set(entry(f"aws_vm.v{i}", f"r-{i}"))
            doc.bump()
            store.write(doc)
        journal = (tmp_path / "state.json.journal").read_text().splitlines()
        assert len(journal) == 1  # 7 writes, compacted at 3 and 6
        assert (tmp_path / "state.json").exists()
        assert JournalStateStore(path).read().to_json() == doc.to_json()

    def test_stale_journal_replay_is_idempotent(self, tmp_path):
        # crash between keyframe replace and journal truncate: replaying
        # the already-folded journal over the new keyframe is a no-op
        from repro.state import JournalStateStore

        path = str(tmp_path / "state.json")
        store = JournalStateStore(path, compact_threshold=100)
        doc = self._doc(4, serial=2)
        store.write(doc)
        stale_journal = (tmp_path / "state.json.journal").read_text()
        store.compact()
        (tmp_path / "state.json.journal").write_text(stale_journal)
        assert JournalStateStore(path).read().to_json() == doc.to_json()

    def test_rejects_stale_serial(self, tmp_path):
        from repro.state import JournalStateStore

        path = str(tmp_path / "state.json")
        store = JournalStateStore(path)
        store.write(self._doc(1, serial=5))
        with pytest.raises(StaleStateError):
            store.write(self._doc(1, serial=4))


class TestLockManagers:
    def test_global_lock_excludes_everyone(self):
        locks = GlobalLockManager()
        assert locks.try_acquire("t1", {"a"}, 0.0)
        assert not locks.try_acquire("t2", {"b"}, 0.0)  # disjoint but blocked
        locks.release("t1")
        assert locks.try_acquire("t2", {"b"}, 0.0)

    def test_resource_locks_allow_disjoint(self):
        locks = ResourceLockManager()
        assert locks.try_acquire("t1", {"a", "b"}, 0.0)
        assert locks.try_acquire("t2", {"c"}, 0.0)
        assert not locks.try_acquire("t3", {"b", "c"}, 0.0)  # overlaps both

    def test_all_or_nothing(self):
        locks = ResourceLockManager()
        locks.try_acquire("t1", {"a"}, 0.0)
        assert not locks.try_acquire("t2", {"a", "b"}, 0.0)
        # b must not be held after the failed acquisition
        assert locks.try_acquire("t3", {"b"}, 0.0)

    def test_conflicts_with(self):
        locks = ResourceLockManager()
        locks.try_acquire("t1", {"a"}, 0.0)
        assert locks.conflicts_with({"a", "z"}) == {"t1"}
        assert locks.conflicts_with({"z"}) == set()

    def test_double_acquire_rejected(self):
        locks = ResourceLockManager()
        locks.try_acquire("t1", {"a"}, 0.0)
        with pytest.raises(RuntimeError):
            locks.try_acquire("t1", {"b"}, 0.0)


class TestTransactions:
    def make_db(self):
        doc = StateDocument()
        doc.set(entry("aws_vpc.main", "vpc-1"))
        return StateDatabase(doc, ResourceLockManager())

    def test_commit_applies(self):
        db = self.make_db()
        txn = db.begin("t1", {"aws_vpc.main", "aws_vm.web"}, now=0.0)
        txn.set(entry("aws_vm.web", "i-1"))
        txn.commit(now=1.0)
        assert db.document.get(ResourceAddress.parse("aws_vm.web")) is not None
        assert db.locks.holders() == []

    def test_abort_discards(self):
        db = self.make_db()
        txn = db.begin("t1", {"aws_vm.web"}, now=0.0)
        txn.set(entry("aws_vm.web", "i-1"))
        txn.abort()
        assert db.document.get(ResourceAddress.parse("aws_vm.web")) is None

    def test_touching_unlocked_key_rejected(self):
        db = self.make_db()
        txn = db.begin("t1", {"aws_vm.web"}, now=0.0)
        with pytest.raises(TransactionError):
            txn.set(entry("aws_vpc.main"))

    def test_conflicting_begin_returns_none(self):
        db = self.make_db()
        db.begin("t1", {"aws_vpc.main"}, now=0.0)
        assert db.begin("t2", {"aws_vpc.main"}, now=0.0) is None

    def test_reads_are_copies(self):
        db = self.make_db()
        txn = db.begin("t1", {"aws_vpc.main"}, now=0.0)
        got = txn.read(ResourceAddress.parse("aws_vpc.main"))
        got.attrs["name"] = "mutated"
        assert (
            db.document.get(ResourceAddress.parse("aws_vpc.main")).attrs["name"]
            == "x"
        )
        txn.abort()

    def test_history_recorded(self):
        db = self.make_db()
        txn = db.begin("t1", {"aws_vpc.main"}, now=0.0)
        txn.read(ResourceAddress.parse("aws_vpc.main"))
        txn.remove(ResourceAddress.parse("aws_vpc.main"))
        txn.commit(now=2.0)
        assert len(db.history) == 1
        assert db.history[0].read_set == {"aws_vpc.main"}
        assert db.history[0].write_set == {"aws_vpc.main"}


class TestSerializability:
    def test_disjoint_history_serializable(self):
        db = StateDatabase(StateDocument(), ResourceLockManager())
        t1 = db.begin("t1", {"a.b"}, now=0.0)
        t1.set(entry("a.b"))
        t1.commit(now=1.0)
        t2 = db.begin("t2", {"c.d"}, now=0.5)
        t2.set(entry("c.d"))
        t2.commit(now=1.5)
        assert SerializabilityChecker.is_serializable(db.history)

    def test_two_phase_locked_history_serializable(self):
        db = StateDatabase(StateDocument(), ResourceLockManager())
        for i in range(5):
            txn = db.begin(f"t{i}", {"shared.key"}, now=float(i))
            txn.set(entry("shared.key", f"r-{i}"))
            txn.commit(now=float(i) + 0.5)
        assert SerializabilityChecker.is_serializable(db.history)

    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_500_txn_history_matches_reference(self, seed):
        """Key-indexed checker agrees with the frozen all-pairs oracle.

        Random 500-transaction histories with overlapping intervals and
        contended keys.
        """
        import random

        from repro.state.transactions import CommittedTransaction

        rng = random.Random(seed)
        keys = [f"k{i}.r" for i in range(40)]
        history = []
        for i in range(500):
            begin = rng.uniform(0, 1000)
            wset = set(rng.sample(keys, rng.randrange(0, 3)))
            rset = set(rng.sample(keys, rng.randrange(0, 4))) | wset
            history.append(
                CommittedTransaction(
                    txn_id=f"t{i}",
                    read_set=rset,
                    write_set=wset,
                    begin_at=begin,
                    commit_at=begin + rng.uniform(0.01, 50),
                )
            )
        got = SerializabilityChecker.is_serializable(history)
        want = SerializabilityChecker.is_serializable_reference(history)
        assert got == want

    def test_cyclic_history_rejected_by_both(self):
        # With sane clocks (begin < commit) the precedence relation
        # follows wall time and can never cycle. Skewed clocks break
        # that invariant: each txn here "commits" before the other
        # "begins", producing t1 -> t2 -> t1. Both checkers must reject.
        from repro.state.transactions import CommittedTransaction

        history = [
            CommittedTransaction(
                "t1", {"a.r"}, {"a.r"}, begin_at=5.0, commit_at=0.0
            ),
            CommittedTransaction(
                "t2", {"a.r"}, {"a.r"}, begin_at=1.0, commit_at=2.0
            ),
        ]
        assert not SerializabilityChecker.is_serializable(history)
        assert not SerializabilityChecker.is_serializable_reference(history)

    def test_500_txn_lock_manager_history_serializable(self):
        # a real 2PL-produced history over 500 txns must pass the fast
        # checker (near-linear: disjoint keys never pair up)
        db = StateDatabase(StateDocument(), ResourceLockManager())
        for i in range(500):
            key = f"slot{i % 25}.r"
            txn = db.begin(f"t{i}", {key}, now=float(i))
            txn.set(entry(key, f"r-{i}"))
            txn.commit(now=float(i) + 0.5)
        assert len(db.history) == 500
        assert SerializabilityChecker.is_serializable(db.history)
        assert SerializabilityChecker.is_serializable_reference(db.history)
