"""One repair rule: drift enforcement and rollback agree per attribute class.

``engine.reconcile`` (3.5) and ``engine.rollback`` (3.4) both push a
live record back to the entry the program intends, through
``repro.update.rollback.repair_action`` and the rollback's phased
executor. Each attribute class is fed to both verbs on twin engines:
they must choose the same action kind and leave the same live record.
"""

import os

import pytest

from repro.cli import main
from repro.core import CloudlessEngine
from repro.persist import load_world, save_world
from repro.update import RollbackKind
from repro.workloads import web_tier
from tests.test_world_log import commits_of

#: class -> (address drifted, out-of-band change, the repair it needs);
#: a change of ``None`` deletes the resource
CLASSES = {
    "declared": (
        "aws_virtual_machine.web_app[0]", {"size": "xlarge"}, RollbackKind.UPDATE,
    ),
    "declared-none-target": (
        "aws_security_group.web_sg",
        {"ingress_rules": ["0.0.0.0/0:22"]},
        RollbackKind.UPDATE,
    ),
    "replacement-forcing": (
        "aws_virtual_machine.web_app[0]", {"image": "win-2022"}, RollbackKind.REPLACE,
    ),
    "undeclared": (
        "aws_virtual_machine.web_app[0]",
        {"network_settings": "custom-mtu-9000"},
        RollbackKind.REPLACE,
    ),
    "deleted": ("aws_virtual_machine.web_app[0]", None, RollbackKind.RECREATE),
}


def entry_at(engine, address):
    return next(e for e in engine.state.resources() if str(e.address) == address)


def drift(engine, address, change):
    """Change ``address`` out of band (``None``: delete it); its entry."""
    entry = entry_at(engine, address)
    plane = engine.gateway.planes["aws"]
    if change is None:
        plane.external_delete(entry.resource_id, actor="script")
    else:
        plane.external_update(entry.resource_id, change, actor="script")
    return entry


def drifted(change_name):
    """A deployed web tier (snapshot v1) with one out-of-band change."""
    engine = CloudlessEngine(seed=36)
    result = engine.apply(web_tier(web_vms=2, app_vms=1))
    assert result.ok
    address, change, _kind = CLASSES[change_name]
    return engine, drift(engine, address, change), result.snapshot_version


def live_view(engine, address):
    """The live record behind ``address``, without what the cloud computes."""
    entry = engine.state.get(address)
    live = engine.gateway.find_record(entry.resource_id)
    spec = engine.gateway.try_spec(address.type)
    return {
        key: value
        for key, value in live.attrs.items()
        if spec.attr(key) is None or not spec.attr(key).computed
    }


@pytest.mark.parametrize("change_name", sorted(CLASSES))
def test_reconcile_and_rollback_repair_alike(change_name):
    expected = CLASSES[change_name][2]

    enforced, entry, _version = drifted(change_name)
    run = enforced.watch()
    assert [str(f.address) for f in run.findings] == [str(entry.address)]
    report = enforced.reconcile(run.findings)
    assert report.ok, [a.performed for a in report.actions]
    rolled, _entry, version = drifted(change_name)
    result = rolled.rollback(version)
    assert result.ok, result.errors
    assert [(str(a.address), a.kind) for a in result.plan.actions] == [
        (str(entry.address), expected)
    ]
    if change_name == "declared-none-target":
        # one in-place reset, no replacement of the group or its users
        assert result.plan.redeployments == 0
        assert result.api_calls == 1

    assert live_view(enforced, entry.address) == live_view(rolled, entry.address)
    golden = {k: v for k, v in entry.attrs.items() if k not in ("id", "public_ip")}
    for key, value in live_view(enforced, entry.address).items():
        assert golden.get(key) == value, key
    repaired = enforced.state.get(entry.address)
    assert repaired.dependencies == entry.dependencies
    (action,) = report.actions
    assert action.repair is not None and action.repair.kind is expected


def test_a_resize_repair_leaves_the_entry_as_it_was():
    engine, entry, _version = drifted("declared")
    engine.reconcile(engine.watch().findings)
    assert engine.state.get(entry.address).updated_at == entry.updated_at


def test_enforcement_does_not_cascade_a_replacement():
    """A replacement-forcing drift on a resource others reference: the
    destroy half is refused, nothing is rebuilt around it, and the
    failure is terminal (the old record is live, so nothing resumes)."""
    engine = CloudlessEngine(seed=36)
    assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
    lb = entry_at(engine, "aws_load_balancer.web_lb")
    vm = drift(engine, "aws_virtual_machine.web_web[0]", {"image": "win-2022"})
    (cycle,) = engine.watch_continuously(cycles=1, auto_reconcile=True)
    (action,) = cycle.report.actions
    assert action.repair.kind is RollbackKind.REPLACE
    assert "DependencyViolation" in action.performed
    assert not action.interrupted and cycle.hard_failed
    assert engine.state.get(vm.address).resource_id == vm.resource_id
    assert engine.state.get(lb.address).resource_id == lb.resource_id


@pytest.fixture
def project(tmp_path):
    """A CLI project with the web tier applied."""
    path = str(tmp_path / "proj")
    os.mkdir(path)
    with open(os.path.join(path, "main.clc"), "w") as handle:
        handle.write(web_tier(web_vms=2, app_vms=1))
    assert main(["--chdir", path, "init"]) == 0
    assert main(["--chdir", path, "apply"]) == 0
    return path


def drift_through_world(project, address, change):
    """:func:`drift`, through the persisted world."""
    world = os.path.join(project, "cloudless.world")
    engine = load_world(world)
    drift(engine, address, change)
    save_world(engine, world)


def test_a_cli_resize_repair_writes_no_state_section(project, capsys):
    drift_through_world(project, "aws_virtual_machine.web_app[0]", {"size": "large"})
    assert main(["--chdir", project, "watch", "--reconcile"]) == 0
    assert "reset cloud attributes" in capsys.readouterr().out
    last = commits_of(os.path.join(project, "cloudless.world"))[-1]
    assert "state" not in last


def test_a_recreated_subnet_keeps_its_dependencies_through_destroy(project, capsys):
    drift_through_world(project, "aws_subnet.web_back", None)
    assert main(["--chdir", project, "watch", "--reconcile"]) == 0
    assert "recreated deleted resource" in capsys.readouterr().out
    assert main(["--chdir", project, "destroy"]) == 0
