"""The policy language: observations and actions (3.6).

The paper argues policy should "clearly separate two aspects: the
observations, and the actions", and span the whole lifecycle. Here a
:class:`Policy` binds together:

* a **phase** -- when it runs (plan admission, runtime metrics, drift);
* an **observation** -- what it reads from the phase context;
* a **condition** over the observation;
* **actions** -- deny/warn/notify, or program-evolving actions
  (set a variable, scale a declaration) that feed back into the IaC
  program itself.

Unlike Rego, policies are plain declarative Python objects a DevOps
engineer can read; the combinators below cover the paper's examples.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

from ..graph.plan import Action as PlanAction

PHASE_PLAN = "plan"
PHASE_METRICS = "metrics"
PHASE_DRIFT = "drift"
PHASES = (PHASE_PLAN, PHASE_METRICS, PHASE_DRIFT)


class UnsupportedPolicyError(ValueError):
    """Raised when a policy cannot be expressed by this engine."""


@dataclasses.dataclass
class ActionRequest:
    """One action a policy wants performed."""

    kind: str  # deny | warn | notify | set_variable | set_attr
    policy: str
    message: str = ""
    subject: str = ""
    variable: str = ""
    value: Any = None
    attr: str = ""

    def __str__(self) -> str:
        if self.kind == "set_variable":
            return f"[{self.policy}] set var.{self.variable} = {self.value!r}"
        return f"[{self.policy}] {self.kind}: {self.message}"


# -- action constructors -----------------------------------------------------


class Action:
    """Base action; ``requests`` renders it into ActionRequests."""

    def requests(self, policy: "Policy", ctx: Any) -> List[ActionRequest]:
        raise NotImplementedError


@dataclasses.dataclass
class Deny(Action):
    message: str

    def requests(self, policy: "Policy", ctx: Any) -> List[ActionRequest]:
        return [
            ActionRequest(kind="deny", policy=policy.name, message=_fmt(self.message, ctx))
        ]


@dataclasses.dataclass
class Warn(Action):
    message: str

    def requests(self, policy: "Policy", ctx: Any) -> List[ActionRequest]:
        return [
            ActionRequest(kind="warn", policy=policy.name, message=_fmt(self.message, ctx))
        ]


@dataclasses.dataclass
class Notify(Action):
    message: str
    channel: str = "ops"

    def requests(self, policy: "Policy", ctx: Any) -> List[ActionRequest]:
        return [
            ActionRequest(
                kind="notify",
                policy=policy.name,
                message=f"[{self.channel}] {_fmt(self.message, ctx)}",
            )
        ]


@dataclasses.dataclass
class SetVariable(Action):
    """Evolve the IaC program by changing an input variable."""

    variable: str
    value: Callable[[Any], Any]

    def requests(self, policy: "Policy", ctx: Any) -> List[ActionRequest]:
        return [
            ActionRequest(
                kind="set_variable",
                policy=policy.name,
                variable=self.variable,
                value=self.value(ctx) if callable(self.value) else self.value,
            )
        ]


def _fmt(message: str, ctx: Any) -> str:
    observation = getattr(ctx, "observation", None)
    if observation is not None and "{observation" in message:
        try:
            return message.format(observation=observation)
        except Exception:
            return message
    return message


# -- the policy object -----------------------------------------------------------


@dataclasses.dataclass
class Policy:
    """One lifecycle policy.

    ``observe`` maps the phase context to an observation value;
    ``condition`` decides whether the actions fire. The context object
    gains an ``observation`` attribute before actions render, so
    messages can interpolate it.
    """

    name: str
    phase: str
    observe: Callable[[Any], Any]
    condition: Callable[[Any], bool]
    actions: List[Action]
    description: str = ""

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise UnsupportedPolicyError(
                f"policy {self.name!r}: unknown phase {self.phase!r}"
            )

    def evaluate(self, ctx: Any) -> List[ActionRequest]:
        observation = self.observe(ctx)
        try:
            ctx.observation = observation
        except AttributeError:
            pass
        if not self.condition(observation):
            return []
        out: List[ActionRequest] = []
        for action in self.actions:
            out.extend(action.requests(self, ctx))
        return out


# -- phase contexts ---------------------------------------------------------------


class PlanContext:
    """What plan-admission policies can observe."""

    def __init__(
        self,
        plan: Any,
        state: Any,
        cost_estimator: Optional[Any] = None,
        variables: Optional[Dict[str, Any]] = None,
    ):
        self.plan = plan
        self.state = state
        self.cost_estimator = cost_estimator
        self.variables = dict(variables or {})
        self.observation: Any = None

    def planned_instances(self) -> List[Any]:
        return [
            c
            for c in self.plan.changes.values()
            if c.action in (PlanAction.CREATE, PlanAction.UPDATE, PlanAction.REPLACE)
        ]

    def estimated_monthly_cost(self) -> float:
        if self.cost_estimator is None:
            return 0.0
        return self.cost_estimator.estimate_plan(self.plan)


class MetricsContext:
    """What runtime (autoscaling) policies can observe."""

    def __init__(
        self,
        metrics: Any,
        state: Any,
        variables: Dict[str, Any],
        now: float,
    ):
        self.metrics = metrics
        self.state = state
        self.variables = dict(variables)
        self.now = now
        self.observation: Any = None


class DriftContext:
    """What failure-handling policies can observe."""

    def __init__(self, findings: List[Any], state: Any, now: float):
        self.findings = list(findings)
        self.state = state
        self.now = now
        self.observation: Any = None
