"""Intent-journal unit tests: WAL format, replay, torn tails, tokens."""

import json
import os

import pytest

from repro.cloud.gateway import CloudGateway
from repro.deploy.wal import (
    IntentJournal,
    WALCorruptError,
)


class TestIntentJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "apply.wal")
        journal = IntentJournal(path)
        run_id = journal.begin_run()
        i0 = journal.log_intent(
            "aws_vpc.main", "create", "aws_vpc",
            address="aws_vpc.main", token=f"{run_id}/aws_vpc.main/0",
        )
        i1 = journal.log_intent(
            "aws_subnet.a", "create", "aws_subnet", address="aws_subnet.a"
        )
        journal.log_commit(i0, resource_id="vpc-00000001")
        journal.log_abort(i1, error="QuotaExceeded")
        journal.close()

        replayed = IntentJournal.resume(path)
        assert replayed.run_id == run_id
        records = replayed.records()
        assert [r.status for r in records] == ["committed", "aborted"]
        assert records[0].committed_id == "vpc-00000001"
        assert records[0].token == f"{run_id}/aws_vpc.main/0"
        assert records[1].error == "QuotaExceeded"
        assert replayed.open_intents() == []

    def test_begin_run_truncates_previous_run(self, tmp_path):
        path = str(tmp_path / "apply.wal")
        journal = IntentJournal(path)
        journal.begin_run()
        journal.log_intent("a", "create", "aws_vpc")
        journal.begin_run()
        journal.log_intent("b", "create", "aws_vpc")
        journal.close()
        replayed = IntentJournal.resume(path)
        assert [r.cid for r in replayed.records()] == ["b"]

    def test_resume_continues_iids_and_run_id(self, tmp_path):
        path = str(tmp_path / "apply.wal")
        journal = IntentJournal(path)
        run_id = journal.begin_run()
        journal.log_intent("a", "create", "aws_vpc")
        journal.close()
        resumed = IntentJournal.resume(path)
        assert resumed.run_id == run_id
        iid = resumed.log_intent("b", "create", "aws_vpc")
        assert iid == 1  # continues after the crashed run's intents
        resumed.close()
        again = IntentJournal.resume(path)
        assert [r.cid for r in again.records()] == ["a", "b"]

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path = str(tmp_path / "apply.wal")
        journal = IntentJournal(path)
        journal.begin_run()
        iid = journal.log_intent("a", "create", "aws_vpc")
        journal.log_commit(iid)
        journal.close()
        # simulate a crash mid-append: half a JSON record at the end
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"rec": "intent", "iid": 1, "cid": "b"')
        replayed = IntentJournal.resume(path)
        assert [r.cid for r in replayed.records()] == ["a"]
        # the torn bytes are physically gone: a second replay is clean
        with open(path, "rb") as handle:
            raw = handle.read()
        assert raw.endswith(b"\n")
        assert b'"cid": "b"' not in raw
        again = IntentJournal.resume(path)
        assert [r.cid for r in again.records()] == ["a"]

    def test_mid_file_garbage_raises(self, tmp_path):
        path = str(tmp_path / "apply.wal")
        journal = IntentJournal(path)
        journal.begin_run()
        journal.log_intent("a", "create", "aws_vpc")
        journal.log_intent("b", "create", "aws_vpc")
        journal.close()
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # corrupt a middle record
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(WALCorruptError):
            IntentJournal.resume(path)

    def test_mark_clean_empties_journal(self, tmp_path):
        path = str(tmp_path / "apply.wal")
        journal = IntentJournal(path)
        journal.begin_run()
        journal.log_intent("a", "create", "aws_vpc")
        journal.mark_clean()
        journal.close()
        assert os.path.getsize(path) == 0
        assert IntentJournal.resume(path).run_id is None

    def test_mark_clean_empties_the_handle_it_holds(self, tmp_path, monkeypatch):
        """One open per run: the journal is emptied through the handle
        the run wrote with, buffered markers first, and is on disk
        empty before ``close`` -- what closing and re-opening it for
        writing left."""
        import repro.deploy.wal as wal

        path = str(tmp_path / "apply.wal")
        opened, synced = [], []
        real_open, real_fsync = open, os.fsync
        monkeypatch.setattr(
            wal, "open", lambda *a, **k: opened.append(a) or real_open(*a, **k),
            raising=False,
        )
        monkeypatch.setattr(
            wal.os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        journal = IntentJournal(path)
        for run in range(2):
            journal.begin_run()
            iid = journal.log_intent("a", "create", "aws_vpc")
            journal.log_commit(iid, "vpc-1")  # rides the buffer
            del synced[:]
            journal.mark_clean()
            assert os.path.getsize(path) == 0
            assert synced == []
            assert journal.run_id is None and journal.records() == []
        assert len(opened) == 2  # begin_run, twice
        journal.close()
        assert os.path.getsize(path) == 0
        # a resumed journal that wrote nothing has no handle to empty
        with real_open(path, "w") as handle:
            handle.write('{"rec":"run","run_id":"r","wal_version":1}\n')
        resumed = IntentJournal.resume(path)
        resumed.mark_clean()
        resumed.close()
        assert os.path.getsize(path) == 0
        # ... and one that appended empties what it appended to
        with real_open(path, "w") as handle:
            handle.write('{"rec":"run","run_id":"r","wal_version":1}\n')
        resumed = IntentJournal.resume(path)
        resumed.log_intent("b", "create", "aws_vpc")
        resumed.mark_clean()
        assert os.path.getsize(path) == 0
        resumed.close()
        assert os.path.getsize(path) == 0

    def test_missing_file_resumes_empty(self, tmp_path):
        replayed = IntentJournal.resume(str(tmp_path / "nope.wal"))
        assert replayed.run_id is None
        assert replayed.records() == []

    def test_records_are_sorted_json_lines(self, tmp_path):
        path = str(tmp_path / "apply.wal")
        journal = IntentJournal(path)
        journal.begin_run()
        journal.log_intent("a", "create", "aws_vpc")
        journal.close()
        for line in open(path, "r", encoding="utf-8"):
            record = json.loads(line)
            assert list(record) == sorted(record)


class TestRecordBytes:
    """The journal's bytes, pinned. Every record is the line
    ``json.dumps(record, sort_keys=True, separators=(",", ":"))`` writes:
    these lines are what the journal wrote when it built each record as
    a dict and encoded it that way, so a journal from that program
    resumes, and a rewrite of how records are built cannot drift."""

    RUN_ID = "0123456789ab"
    LINES = [
        '{"rec":"run","run_id":"0123456789ab","wal_version":1}',
        '{"cid":"aws_vpc.main","iid":0,"op":"create","rec":"intent",'
        '"rtype":"aws_vpc","token":"0123456789ab/aws_vpc.main/0"}',
        '{"cid":"aws_subnet.web[\\"a\\\\\\"b\\"]","iid":1,"op":"update",'
        '"rec":"intent","resource_id":"subnet-0f","rtype":"aws_subnet"}',
        '{"address":"module.app.aws_instance.app[0]","cid":"aws_instance.app[0]",'
        '"iid":2,"op":"delete","rec":"intent","resource_id":"i-01",'
        '"rtype":"aws_instance"}',
        '{"iid":0,"rec":"commit","resource_id":"vpc-00000001"}',
        '{"error":"InvalidParameter: \\"cidr\\" \\u00e9\\n\\\\ bad","iid":1,'
        '"rec":"abort"}',
        '{"iid":2,"rec":"commit","resource_id":""}',
    ]

    def write(self, path: str) -> None:
        journal = IntentJournal(path)
        journal.begin_run(self.RUN_ID)
        i0 = journal.log_intent(
            "aws_vpc.main", "create", "aws_vpc",
            address="aws_vpc.main", token=f"{self.RUN_ID}/aws_vpc.main/0",
        )
        i1 = journal.log_intent(
            'aws_subnet.web["a\\"b"]', "update", "aws_subnet",
            resource_id="subnet-0f",
        )
        i2 = journal.log_intent(
            "aws_instance.app[0]", "delete", "aws_instance",
            address="module.app.aws_instance.app[0]", resource_id="i-01",
        )
        journal.log_commit(i0, resource_id="vpc-00000001")
        journal.log_abort(i1, error='InvalidParameter: "cidr" é\n\\ bad')
        journal.log_commit(i2)
        journal.close()

    def test_the_bytes_are_pinned(self, tmp_path):
        path = str(tmp_path / "apply.wal")
        self.write(path)
        with open(path, "rb") as handle:
            assert handle.read() == "".join(
                line + "\n" for line in self.LINES
            ).encode("ascii")

    def test_each_line_is_sorted_compact_json(self):
        for line in self.LINES:
            assert json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            ) == line

    def test_a_journal_in_the_pinned_format_resumes(self, tmp_path):
        path = str(tmp_path / "apply.wal")
        with open(path, "w", encoding="ascii") as handle:
            handle.writelines(line + "\n" for line in self.LINES)
        resumed = IntentJournal.resume(path)
        assert resumed.run_id == self.RUN_ID
        records = resumed.records()
        assert [(r.cid, r.address, r.op, r.rtype, r.status) for r in records] == [
            ("aws_vpc.main", "aws_vpc.main", "create", "aws_vpc", "committed"),
            (
                'aws_subnet.web["a\\"b"]', 'aws_subnet.web["a\\"b"]',
                "update", "aws_subnet", "aborted",
            ),
            (
                "aws_instance.app[0]", "module.app.aws_instance.app[0]",
                "delete", "aws_instance", "committed",
            ),
        ]
        assert records[0].token == f"{self.RUN_ID}/aws_vpc.main/0"
        assert records[0].committed_id == "vpc-00000001"
        assert records[1].resource_id == "subnet-0f"
        assert records[1].error == 'InvalidParameter: "cidr" é\n\\ bad'
        assert resumed.log_intent("aws_vpc.b", "create", "aws_vpc") == 3


class TestIdempotencyTokens:
    def test_create_with_same_token_returns_original(self):
        gateway = CloudGateway.simulated(seed=0)
        plane = gateway.planes["aws"]
        first = plane.execute(
            "create", "aws_vpc",
            attrs={"name": "net", "cidr_block": "10.0.0.0/16"},
            region="us-east-1", idempotency_token="tok-1",
        )
        second = plane.execute(
            "create", "aws_vpc",
            attrs={"name": "net", "cidr_block": "10.0.0.0/16"},
            region="us-east-1", idempotency_token="tok-1",
        )
        assert second["id"] == first["id"]
        assert plane.count("aws_vpc") == 1

    def test_different_tokens_create_distinct_resources(self):
        gateway = CloudGateway.simulated(seed=0)
        plane = gateway.planes["aws"]
        a = plane.execute(
            "create", "aws_vpc",
            attrs={"name": "net-a", "cidr_block": "10.0.0.0/16"},
            region="us-east-1", idempotency_token="tok-a",
        )
        b = plane.execute(
            "create", "aws_vpc",
            attrs={"name": "net-b", "cidr_block": "10.1.0.0/16"},
            region="us-east-1", idempotency_token="tok-b",
        )
        assert a["id"] != b["id"]
        assert plane.count("aws_vpc") == 2

    def test_find_record_by_token_across_planes(self):
        gateway = CloudGateway.simulated(seed=0)
        response = gateway.planes["azure"].execute(
            "create", "azure_resource_group",
            attrs={"name": "rg", "location": "eastus"}, region="eastus",
            idempotency_token="tok-rg",
        )
        found = gateway.find_record_by_token("tok-rg")
        assert found is not None and found.id == response["id"]
        assert gateway.find_record_by_token("tok-none") is None
        assert gateway.find_record_by_token("") is None

    def test_tokenless_create_never_deduplicates(self):
        gateway = CloudGateway.simulated(seed=0)
        plane = gateway.planes["aws"]
        plane.execute(
            "create", "aws_s3_bucket", attrs={"name": "b1"}, region="us-east-1"
        )
        assert gateway.find_record_by_token("") is None

    def test_settle_inflight_resolves_accepted_writes(self):
        gateway = CloudGateway.simulated(seed=0)
        plane = gateway.planes["aws"]
        pending = plane.submit(
            "create", "aws_vpc",
            attrs={"name": "net", "cidr_block": "10.0.0.0/16"},
            region="us-east-1", idempotency_token="tok-settle",
        )
        assert plane.count("aws_vpc") == 0  # client died before resolve
        settled = gateway.settle_inflight()
        assert settled == 1
        assert plane.count("aws_vpc") == 1
        assert gateway.clock.now >= pending.t_complete
        # the orphan is discoverable by its token
        assert gateway.find_record_by_token("tok-settle") is not None
        # idempotent: nothing left to settle
        assert gateway.settle_inflight() == 0
