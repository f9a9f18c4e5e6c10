"""``cli_cold`` and ``cli_day2``: the CLI as a user runs it, one process
per verb, interpreter start included."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import inputs
from measure import Outcome, Sample, median
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
WORLD = "cloudless.world"
#: a verb that takes longer than this is a hang, and a failure
VERB_TIMEOUT_S = 120.0

EDITED_BLOCKS = 8
MUTATIONS = 20

_PLAN = re.compile(r"^Plan: (\d+) to add, (\d+) to change, (\d+) to destroy\.$", re.M)
_APPLIED = re.compile(
    r"^apply complete in ([\d.]+) simulated seconds \((\d+) API calls\)", re.M
)
_FINDING = re.compile(r"^\s*\[(\w+)\] (\S+) \(([^)]*)\) by (\S+)", re.M)


@dataclasses.dataclass
class VerbRun:
    started: float
    ended: float
    exit_code: int
    output: str
    rss_mb: float


class Cli:
    """Runs ``python -m repro`` verbs and turns each into a Sample."""

    def __init__(self, src_dir: str, tracer: Optional[Tracer], scratch: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, os.environ.get("PYTHONPATH")) if p
        )
        self.tracer = tracer
        self.scratch = scratch
        self.samples: List[Sample] = []
        self.problems: List[str] = []
        self.checks = 0
        self.checks_failed = 0
        self.perf: Dict[str, int] = {}

    def run(self, project: str, *verb: str, traced_op: int = 0) -> VerbRun:
        """One child process; the wall is spawn to reaped, which is what
        the user sits through. ``traced_op`` runs it under the shim and
        adopts its spans as that op."""
        argv = ["--chdir", project, *verb]
        spans_file = os.path.join(self.scratch, "child-spans.json")
        if traced_op:
            command = [sys.executable, TRACED_CLI, spans_file, *argv]
        else:
            command = [sys.executable, "-m", "repro", *argv]
        started = time.perf_counter()
        proc = subprocess.Popen(
            command,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        watchdog = threading.Timer(VERB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            assert proc.stdout is not None
            output = proc.stdout.read()
            # wait4, not Popen.wait: the rusage of exactly this child
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        ended = time.perf_counter()
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if traced_op:
            self._adopt(spans_file, verb[0], traced_op, started, ended)
        return VerbRun(
            started=started,
            ended=ended,
            exit_code=proc.returncode,
            output=output,
            rss_mb=usage.ru_maxrss / 1024.0,
        )

    def _adopt(
        self, spans_file: str, verb: str, op: int, started: float, ended: float
    ) -> None:
        assert self.tracer is not None
        root = self.tracer.new_id()
        self.tracer.op_of_span[root] = op
        self.tracer.spans.append(
            (root, 0, "cli.process", started, ended, {"verb": verb})
        )
        try:
            with open(spans_file, encoding="utf-8") as handle:
                child = json.load(handle)
        except (OSError, ValueError):
            return  # the verb died before the shim wrote; its check fails too
        os.unlink(spans_file)
        self.tracer.adopt((tuple(span) for span in child["spans"]), parent=root)
        for name, value in child["perf"].items():
            self.perf[name] = self.perf.get(name, 0) + value

    @staticmethod
    def _complaint(run: VerbRun, expect) -> Optional[str]:
        if run.exit_code != 0:
            return f"exit {run.exit_code}: {run.output.strip()[-200:]}"
        return expect(run)

    def timed(self, kind: str, project: str, *verb: str, traced: bool, expect) -> None:
        """Run a verb as a timed op; ``expect(run)`` returns a complaint
        or None, and a complaint makes the op a failed one."""
        op = len(self.samples) + 1
        run = self.run(project, *verb, traced_op=op if traced else 0)
        complaint = self._complaint(run, expect)
        if complaint:
            self.problems.append(f"op {op} {' '.join(verb)}: {complaint}")
        self.samples.append(
            Sample(
                kind=kind,
                latency_s=run.ended - run.started,
                outcome="failed" if complaint else "ok",
                traced=traced,
                op=op,
                started_at=run.started,
                done_at=run.ended,
                engine_s=run.ended - run.started,
                rss_mb=run.rss_mb,
                reason=complaint or "",
            )
        )

    def check(self, complaint: Optional[str], what: str) -> None:
        """An untimed check: one more attempted op, failed on a complaint."""
        self.checks += 1
        if complaint:
            self.checks_failed += 1
            self.problems.append(f"{what}: {complaint}")

    def untimed(self, project: str, *verb: str, expect) -> None:
        """A set-up or end-of-run verb: checked, not sampled."""
        run = self.run(project, *verb)
        self.check(self._complaint(run, expect), " ".join(verb))


# -- output checks -------------------------------------------------------------


def expect_plan(add: int, change: int):
    def check(run: VerbRun) -> Optional[str]:
        found = _PLAN.search(run.output)
        want = (add, change, 0)
        got = tuple(int(g) for g in found.groups()) if found else None
        if got != want:
            return f"plan line says {got}, generator says {want}"
        return None

    return check


def expect_apply(add: int, change: int, makespans: List[float]):
    """Plan line, one API call per change, and a simulated makespan
    appended to ``makespans`` for the caller's repeat check."""
    plan_check = expect_plan(add, change)

    def check(run: VerbRun) -> Optional[str]:
        complaint = plan_check(run)
        if complaint:
            return complaint
        done = _APPLIED.search(run.output)
        if not done:
            return "no 'apply complete' line"
        if int(done.group(2)) != add + change:
            return f"{done.group(2)} API calls for {add + change} changes"
        makespans.append(float(done.group(1)))
        return None

    return check


def expect_init(run: VerbRun) -> Optional[str]:
    return None if "initialized" in run.output else "no 'initialized' line"


def expect_no_drift(run: VerbRun) -> Optional[str]:
    if "no drift detected" not in run.output:
        return f"expected no drift, got: {run.output.strip()[:200]}"
    return None


def expect_findings(addresses: List[str]):
    """Exactly the injected edits, each seen as modified and enforced."""

    def check(run: VerbRun) -> Optional[str]:
        found = sorted(
            addr
            for kind, addr, attrs, actor in _FINDING.findall(run.output)
            if kind == "modified" and attrs == "size" and actor == "bench"
        )
        if found != sorted(addresses):
            missing = sorted(set(addresses) - set(found))
            extra = sorted(set(found) - set(addresses))
            return f"findings differ: missing {missing[:3]}, unexpected {extra[:3]}"
        enforced = run.output.count("-> enforce")
        if enforced != len(addresses):
            return f"{enforced} enforced of {len(addresses)} injected"
        return None

    return check


# -- shared set-up ---------------------------------------------------------------


def _write_sources(project: str, sources: Dict[str, str]) -> None:
    os.makedirs(project, exist_ok=True)
    for name, text in sources.items():
        with open(os.path.join(project, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def _cycle_fits(started: float, cycles: List[float], seconds: float, traced_run: bool) -> bool:
    """Start another cycle only if a typical one still fits the window.
    A traced run needs one cycle of each kind, however short the window."""
    if len(cycles) < (2 if traced_run else 1):
        return True
    elapsed = time.perf_counter() - started
    return elapsed + median(cycles) <= seconds


def _finish(cli: Cli, setups: List[Tuple[float, float]], **kwargs) -> Outcome:
    applies = [
        s.rss_mb for s in cli.samples if s.ok and not s.traced and s.kind == "apply"
    ]
    return Outcome(
        samples=cli.samples,
        setups=setups,
        peak_rss_mb=median(applies),
        checks=cli.checks,
        checks_failed=cli.checks_failed,
        problems=cli.problems,
        perf=cli.perf,
        load_generators="1 process, verbs one after another",
        **kwargs,
    )


# -- cli_cold ---------------------------------------------------------------------

SETUP_REPEATS = 3


def cli_cold(src_dir, seed, seconds, tracer, scratch) -> Outcome:
    """Greenfield: every verb meets the estate for the first time.

    Per cycle, in fresh directories: ``apply`` (cold parse, build, plan,
    1,993 creates), then ``watch`` on the result (first read of the
    whole activity log), and ``plan`` in a second fresh directory (cold
    compile, nothing deployed). Set-up is cheap here, so it is done
    several times and the median reported.
    """
    cli = Cli(src_dir, tracer, scratch)
    template = os.path.join(scratch, "template")
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        shutil.rmtree(template, ignore_errors=True)
        sources = inputs.cli_estate()
        _write_sources(template, sources)
        cli.untimed(template, "init", "--seed", str(seed), expect=expect_init)
        setups.append((started, time.perf_counter()))
    size = sum(inputs.estate_size(text) for text in sources.values())

    makespans: List[float] = []
    cycles: List[float] = []
    world_bytes: List[int] = []
    started = time.perf_counter()
    while _cycle_fits(started, cycles, seconds, tracer is not None):
        cycle_started = time.perf_counter()
        traced = tracer is not None and len(cycles) % 2 == 1
        deploy_dir = os.path.join(scratch, f"cold-{len(cycles)}-deploy")
        plan_dir = os.path.join(scratch, f"cold-{len(cycles)}-plan")
        shutil.copytree(template, deploy_dir)
        shutil.copytree(template, plan_dir)
        cli.timed(
            "apply", deploy_dir, "apply", traced=traced,
            expect=expect_apply(size, 0, makespans),
        )
        cli.timed("drift", deploy_dir, "watch", traced=traced, expect=expect_no_drift)
        cli.timed("plan", plan_dir, "plan", traced=traced, expect=expect_plan(size, 0))
        world_bytes.append(os.path.getsize(os.path.join(deploy_dir, WORLD)))
        shutil.rmtree(deploy_dir)
        shutil.rmtree(plan_dir)
        cycles.append(time.perf_counter() - cycle_started)

    cli.check(
        f"differs between repetitions: {sorted(set(makespans))}"
        if len(set(makespans)) > 1
        else None,
        "simulated makespan",
    )
    return _finish(
        cli,
        setups,
        exact={"sim_makespan_s": makespans[0] if makespans else 0.0},
        extra={
            "resources_per_parse": size,
            "world_bytes_first": world_bytes[0],
            "world_bytes_last": world_bytes[-1],
        },
    )


# -- cli_day2 ---------------------------------------------------------------------


def _inject(project: str, rng: random.Random, label: str) -> List[str]:
    """Untimed: edit the simulated clouds behind the engine's back, the
    way a console user would, through the persisted world."""
    from repro.persist import load_world, save_world

    world = os.path.join(project, WORLD)
    engine = load_world(world)
    vms = [
        (str(entry.address), entry.resource_id, entry.address.type.split("_", 1)[0])
        for entry in engine.state.resources()
        if entry.address.type.endswith("_virtual_machine")
    ]
    mutations = inputs.pick_mutations(vms, rng, MUTATIONS, label)
    for _address, rid, provider, attrs in mutations:
        engine.gateway.planes[provider].external_update(rid, attrs, actor="bench")
    save_world(engine, world)
    return [address for address, _rid, _provider, _attrs in mutations]


def cli_day2(src_dir, seed, seconds, tracer, scratch) -> Outcome:
    """Brownfield: the estate exists; each cycle is an operator's day.

    Edit eight service blocks and ``apply`` (16 in-place updates),
    ``plan`` the unchanged sources, then ``watch --reconcile`` after 20
    out-of-band edits. One directory throughout, so the compile cache,
    the snapshot history and the world file age as they would.
    """
    cli = Cli(src_dir, tracer, scratch)
    rng = random.Random(seed)
    project = os.path.join(scratch, "day2")
    setup_started = time.perf_counter()
    sources = inputs.cli_estate()
    _write_sources(project, sources)
    size = sum(inputs.estate_size(text) for text in sources.values())
    cli.untimed(project, "init", "--seed", str(seed), expect=expect_init)
    cli.untimed(project, "apply", expect=expect_apply(size, 0, []))
    setups = [(setup_started, time.perf_counter())]

    aws = sources["aws.clc"]
    cycles: List[float] = []
    world_bytes: List[int] = []
    started = time.perf_counter()
    while _cycle_fits(started, cycles, seconds, tracer is not None):
        cycle_started = time.perf_counter()
        index = len(cycles)
        traced = tracer is not None and index % 2 == 1
        aws, updates = inputs.edit_blocks(aws, rng, EDITED_BLOCKS, f"c{index}")
        _write_sources(project, {"aws.clc": aws})
        cli.timed(
            "apply", project, "apply", traced=traced,
            expect=expect_apply(0, updates, []),
        )
        world_bytes.append(os.path.getsize(os.path.join(project, WORLD)))
        cli.timed("plan", project, "plan", traced=traced, expect=expect_plan(0, 0))
        injected = _inject(project, rng, f"c{index}")
        cli.timed(
            "drift", project, "watch", "--reconcile", traced=traced,
            expect=expect_findings(injected),
        )
        cycles.append(time.perf_counter() - cycle_started)

    # the repairs must have stuck: nothing left to find
    cli.untimed(project, "watch", expect=expect_no_drift)
    shutil.rmtree(project)
    return _finish(
        cli,
        setups,
        extra={
            "resources_per_parse": size,
            "world_bytes_first": world_bytes[0],
            "world_bytes_last": world_bytes[-1],
        },
    )
