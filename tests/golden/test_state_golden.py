"""Golden equivalence: COW state layer vs frozen deep-copy reference.

Drives *identical* seeded mutation sequences through the live
copy-on-write document/history (:mod:`repro.state`) and the frozen
deep-copy implementation (:mod:`repro.state.reference`), asserting at
every step that

* ``to_json()`` output is byte-identical,
* ``SnapshotHistory.diff`` results are equal for every version pair,
* ``checkout()`` reconstructions are byte-identical,
* document copies taken mid-sequence stay frozen while the original
  keeps mutating (snapshot isolation).

If the COW rewrite ever diverges observably from full deep copies,
these tests name the first step where it happens.
"""

import json
import random

import pytest

from repro.addressing import ResourceAddress
from repro.state import SnapshotHistory, StateDocument
from repro.state.document import ResourceState
from repro.state.reference import (
    ReferenceResourceState,
    ReferenceSnapshotHistory,
    ReferenceStateDocument,
)

TYPES = ["aws_virtual_machine", "aws_subnet", "azure_disk", "gcp_bucket"]


def _attrs(rng: random.Random) -> dict:
    return {
        "name": f"res-{rng.randrange(1000)}",
        "size": rng.choice(["small", "medium", "large"]),
        "tags": {"team": rng.choice(["a", "b"]), "n": rng.randrange(5)},
        "ports": [rng.randrange(1024) for _ in range(rng.randrange(3))],
    }


def _address(rng: random.Random) -> str:
    rtype = rng.choice(TYPES)
    name = f"r{rng.randrange(30)}"
    if rng.random() < 0.3:
        return f"{rtype}.{name}[{rng.randrange(3)}]"
    return f"{rtype}.{name}"


class _TwinDriver:
    """Applies one mutation step to both implementations in lockstep."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.live = StateDocument()
        self.ref = ReferenceStateDocument()
        self.live_history = SnapshotHistory()
        self.ref_history = ReferenceSnapshotHistory()
        self.next_id = 0

    def step(self) -> str:
        rng = self.rng
        roll = rng.random()
        addr_text = _address(rng)
        addr = ResourceAddress.parse(addr_text)
        if roll < 0.45 or len(self.live) == 0:
            # set (create or overwrite)
            attrs = _attrs(rng)
            existing = self.live.get(addr)
            if existing is not None and rng.random() < 0.5:
                rid = existing.resource_id  # in-place update, same identity
            else:
                self.next_id += 1
                rid = f"cloud-{self.next_id}"
            deps = sorted(
                str(e.address)
                for e in self.live.resources()[:2]
                if str(e.address) != addr_text
            )
            kwargs = dict(
                address=addr,
                resource_id=rid,
                provider="aws",
                attrs=attrs,
                region="us-east-1",
                created_at=1.0,
                updated_at=float(rng.randrange(100)),
                dependencies=deps,
            )
            self.live.set(ResourceState(**dict(kwargs, attrs=json.loads(json.dumps(attrs)))))
            self.ref.set(ReferenceResourceState(**dict(kwargs, attrs=json.loads(json.dumps(attrs)))))
            return f"set {addr_text}"
        if roll < 0.6:
            # remove a random existing entry (or a miss)
            if rng.random() < 0.8 and len(self.live):
                victim = rng.choice([str(a) for a in self.live.addresses()])
                addr = ResourceAddress.parse(victim)
            self.live.remove(addr)
            self.ref.remove(addr)
            return f"remove {addr}"
        if roll < 0.7:
            # replace: delete->create, identical attrs, fresh identity
            if not len(self.live):
                return "noop"
            victim = rng.choice([str(a) for a in self.live.addresses()])
            vaddr = ResourceAddress.parse(victim)
            live_old = self.live.get(vaddr)
            self.next_id += 1
            rid = f"cloud-{self.next_id}"
            self.live.set(live_old.replace(resource_id=rid))
            ref_old = self.ref.get(vaddr)
            ref_new = ref_old.copy()
            ref_new.resource_id = rid
            self.ref.set(ref_new)
            return f"replace {victim}"
        if roll < 0.8:
            value = rng.choice([1, "x", [1, 2], {"k": "v"}, None])
            name = f"out{rng.randrange(4)}"
            self.live.outputs[name] = value
            self.ref.outputs[name] = json.loads(json.dumps(value))
            return f"output {name}"
        if roll < 0.9:
            self.live.bump()
            self.ref.bump()
            return "bump"
        self.live_history.checkpoint(
            self.live, {"main.clc": "cfg"}, timestamp=float(len(self.live_history))
        )
        self.ref_history.checkpoint(
            self.ref, {"main.clc": "cfg"}, timestamp=float(len(self.ref_history))
        )
        return "checkpoint"

    def assert_equivalent(self, context: str) -> None:
        assert self.live.to_json() == self.ref.to_json(), context
        assert len(self.live_history) == len(self.ref_history)


@pytest.mark.parametrize("seed", [0, 7, 91])
def test_golden_mutation_sequences(seed):
    driver = _TwinDriver(seed)
    for i in range(240):
        what = driver.step()
        driver.assert_equivalent(f"seed={seed} step={i}: {what}")
    # force a final checkpoint on both sides so history is non-trivial
    driver.live_history.checkpoint(driver.live, {}, timestamp=999.0)
    driver.ref_history.checkpoint(driver.ref, {}, timestamp=999.0)

    versions = driver.live_history.versions()
    assert versions == driver.ref_history.versions()
    # every checkout reconstructs byte-identically
    for v in versions:
        live_doc = driver.live_history.checkout(v)
        ref_doc = driver.ref_history.checkout(v)
        assert live_doc.to_json() == ref_doc.to_json(), f"checkout v{v}"
        snap = driver.live_history.get(v)
        assert snap.state.to_json() == ref_doc.to_json(), f"get v{v}"
    # every version pair diffs identically
    rng = random.Random(seed)
    pairs = [
        (a, b)
        for a in versions
        for b in versions
    ]
    for a, b in rng.sample(pairs, min(60, len(pairs))):
        live_diff = driver.live_history.diff(a, b)
        ref_diff = driver.ref_history.diff(a, b)
        assert live_diff.added == ref_diff.added, f"diff {a}->{b}"
        assert live_diff.removed == ref_diff.removed, f"diff {a}->{b}"
        assert live_diff.changed == ref_diff.changed, f"diff {a}->{b}"


def test_copies_stay_frozen_while_original_mutates():
    driver = _TwinDriver(seed=5)
    frozen = []
    for i in range(120):
        driver.step()
        if i % 20 == 10:
            frozen.append((driver.live.copy(), driver.ref.copy()))
        for live_copy, ref_copy in frozen:
            assert live_copy.to_json() == ref_copy.to_json()


def test_round_trip_through_json_matches_reference():
    driver = _TwinDriver(seed=11)
    for _ in range(60):
        driver.step()
    text = driver.live.to_json()
    assert StateDocument.from_json(text).to_json() == text
    assert ReferenceStateDocument.from_json(text).to_json() == text
