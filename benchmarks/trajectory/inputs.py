"""Seeded inputs, and what the program must answer for them.

Every expected value here comes from the generator's own arithmetic --
how many resources the text declares, which blocks an edit touched,
which resources a mutation hit -- never from running the engine a
second time and comparing.
"""

from __future__ import annotations

import random
import re
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.workloads import scale_estate, sized_estate, two_region_estate

#: CLI estate: 1,000 requested on each cloud; lands in three (provider,
#: region) partitions (aws default region, azure eastus + westus2)
CLI_RESOURCES_PER_CLOUD = 1000
#: service tenants: one ~100-resource microservices estate each
TENANT_RESOURCES = 100

_COUNT = re.compile(r"^\s*count\s*=\s*(\d+)\s*$", re.M)
_VM_TAGS = r'tags( +)= \{ service = "%s"(?:, rev = "[^"]*")? \}'


def estate_size(text: str) -> int:
    """Resources a configuration declares: one per block, ``count``
    per counted block."""
    blocks = len(re.findall(r'^resource "', text, re.M))
    counts = [int(n) for n in _COUNT.findall(text)]
    return blocks - len(counts) + sum(counts)


def cli_estate() -> Dict[str, str]:
    """The two-cloud estate the CLI workloads deploy."""
    return {
        "aws.clc": scale_estate(CLI_RESOURCES_PER_CLOUD),
        "azure.clc": two_region_estate(CLI_RESOURCES_PER_CLOUD),
    }


def tenant_estate() -> str:
    return sized_estate(TENANT_RESOURCES)


def service_names(text: str) -> List[str]:
    """The ``service`` tag of every taggable VM block, in file order."""
    return re.findall(r'tags +=\s*\{ service = "([^"]+)"', text)


def tag_revision(text: str, service: str, revision: str) -> str:
    """Set ``rev`` in one service's VM tags: a one-attribute edit of one
    block, which the planner sees as an in-place update of each of the
    block's ``count = 2`` instances."""
    pattern = _VM_TAGS % re.escape(service)
    edited, n = re.subn(
        pattern,
        lambda m: f'tags{m.group(1)}= {{ service = "{service}", rev = "{revision}" }}',
        text,
    )
    if n != 1:
        raise ValueError(f"expected one VM block tagged {service!r}, found {n}")
    return edited


#: instances under each edited VM block
UPDATES_PER_EDIT = 2


def edit_blocks(
    text: str, rng: random.Random, blocks: int, revision: str
) -> Tuple[str, int]:
    """Edit ``blocks`` seeded service blocks; returns the text and the
    number of in-place updates the next plan must show."""
    for service in rng.sample(service_names(text), blocks):
        text = tag_revision(text, service, revision)
    return text, blocks * UPDATES_PER_EDIT


def pick_mutations(
    vms: Sequence[Tuple[str, str, str]], rng: random.Random, count: int, label: str
) -> List[Tuple[str, str, str, Dict[str, str]]]:
    """``count`` external edits on distinct VMs.

    ``vms`` is ``(address, resource id, provider)`` per managed VM;
    returns ``(address, resource id, provider, attrs)`` so the caller
    can inject them and later demand exactly these addresses back as
    findings.
    """
    chosen = rng.sample(sorted(vms), count)
    return [
        (address, rid, provider, {"size": f"drift-{label}-{i}"})
        for i, (address, rid, provider) in enumerate(chosen)
    ]


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


#: the service op mix, out of ten (apply carries a one-attribute edit)
OP_DECK: Tuple[str, ...] = ("apply",) * 4 + ("plan",) * 3 + ("drift",) * 2 + ("stats",)


def op_stream(rng: random.Random) -> Iterator[str]:
    """Op kinds in seeded order, dealt from shuffled decks of ten: every
    ten consecutive ops hold the mix exactly, so two seeds differ in
    order but never in how much work they ask for."""
    while True:
        deck = list(OP_DECK)
        rng.shuffle(deck)
        yield from deck
