"""Workloads of the XRD round benchmark: seeded inputs, rounds, output checks.

Load is round-based and closed-loop: every online user submits ℓ messages
each round, and the next round starts when the previous one returns
(sequential workloads, ``Deployment.run_round``) or when its collect
window closes (``Deployment.run_rounds(..., staggered=True)``).  The
benchmark generates the conversation pairs, payloads and offline sets from
its ``--seed``; the program receives only those and ``DeploymentConfig.seed``.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import Deployment, DeploymentConfig
from repro.client.user import ReceivedMessage
from repro.registry import ExecutionBackendKind, PopulationKind, TransportKind
from repro.transport import make_transport
from repro.transport import envelope as ev

PAYLOAD_BYTES = 32
UPLOAD_KINDS = (ev.SUBMISSION, ev.COVER_SUBMISSION, ev.SUBMISSION_BATCH, ev.COVER_SUBMISSION_BATCH)
DOWNLOAD_KINDS = (ev.MAILBOX_FETCH, ev.MAILBOX_FETCH_BATCH)


@dataclass(frozen=True)
class Workload:
    """One named input shape.  All use 8 servers and 8 chains of length 3 (ℓ = 4)."""

    name: str
    group: str
    users: int
    pairs: int
    staggered: bool = False
    offline_frac: float = 0.0
    chunk_size: Optional[int] = None
    #: Staggered workloads run in batches of this many rounds (one
    #: ``run_rounds`` call each); conversations are re-established between
    #: batches, and each batch's first round has everyone online.
    batch_rounds: int = 0
    #: Seconds one batch takes on the reference machine (2 vCPUs).  A run
    #: plays ``round(seconds / batch_s)`` batches, so the sample count, and
    #: with it the best round of the sample, does not depend on how fast the
    #: machine happens to be during the run.
    batch_s: float = 3.3

    def batches(self, seconds: float) -> int:
        """Batches a run of ``seconds`` plays."""
        return max(1, round(seconds / self.batch_s))

    def config(self, seed: int) -> DeploymentConfig:
        # Knobs that do not define a workload (stream_mix, crypto_kernel,
        # precompute) stay at their defaults.
        return DeploymentConfig(
            num_servers=8,
            num_users=self.users,
            num_chains=8,
            chain_length=3,
            seed=seed,
            use_cover_messages=True,
            group_kind=self.group,
            population=PopulationKind.BATCHED,
            population_chunk_size=self.chunk_size,
            execution_backend=ExecutionBackendKind.SERIAL,
            transport=TransportKind.INPROC,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The headline group: pure-Python Edwards arithmetic dominates and
        # per-message overhead is negligible.
        Workload(name="steady-ed25519", group="ed25519", users=16, pairs=8),
        # Covers, offline notices and deferred per-user builds, with collect
        # and precompute overlapping the previous round's mix on two threads.
        Workload(
            name="churn-staggered",
            group="modp",
            users=600,
            pairs=150,
            staggered=True,
            offline_frac=0.10,
            chunk_size=200,
            batch_rounds=12,
            batch_s=15.0,
        ),
    )
}


# -- seeded inputs ----------------------------------------------------------------


class Inputs:
    """Conversation pairs, payloads and offline sets, all derived from the seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.num_users = workload.users
        order = list(range(self.num_users))
        random.Random(f"xrdbench/{workload.name}/{seed}/pairs").shuffle(order)
        self.pairs: List[Tuple[str, str]] = [
            (f"user-{order[2 * i]}", f"user-{order[2 * i + 1]}") for i in range(workload.pairs)
        ]
        paired = {name for pair in self.pairs for name in pair}
        self.unpaired = [f"user-{i}" for i in range(self.num_users) if f"user-{i}" not in paired]

    def payloads(self, round_key: int, senders) -> Dict[str, bytes]:
        rng = random.Random(f"xrdbench/{self.workload.name}/{self.seed}/payload/{round_key}")
        return {name: rng.randbytes(PAYLOAD_BYTES) for name in sorted(senders)}

    def offline_set(self, rng: random.Random, alive: List[Tuple[str, str]],
                    previous: Set[str]) -> Set[str]:
        """One round's offline users.

        The share of users offline is the workload's, and so is the share
        drawn from live conversations (one partner per chosen pair), so
        every seed ends the same number of conversations and defers the same
        number of builds; the rest are users without a partner.  Nobody is
        offline two rounds running, so every offline user has banked covers,
        every offline notice reaches an online partner, and every online
        user's mailbox holds exactly ℓ messages.
        """
        frac = self.workload.offline_frac
        from_alive = round(frac * 2 * len(alive))
        chosen = {pair[rng.randrange(2)] for pair in rng.sample(alive, from_alive)}
        unpaired = [name for name in self.unpaired if name not in previous]
        chosen.update(rng.sample(unpaired, round(frac * self.num_users) - from_alive))
        return chosen


@dataclass
class RoundPlan:
    """What one round sends, and what a correct round must deliver."""

    payloads: Dict[str, bytes]
    offline: Set[str]
    #: (sender, receiver) pairs whose payload must arrive.
    expected: List[Tuple[str, str]]
    #: Online users whose partner went offline this round: they get a notice.
    notified: List[str]


def plan_batch(inputs: Inputs, batch: int, rounds: int) -> List[RoundPlan]:
    """Plans for one batch of rounds, tracking which conversations are alive.

    A conversation ends the round either partner is offline (the cover
    carries an offline notice, §5.3.3); the benchmark re-establishes every
    conversation out of band before the next batch.
    """
    rng = random.Random(f"xrdbench/{inputs.workload.name}/{inputs.seed}/offline/{batch}")
    alive = list(inputs.pairs)
    offline: Set[str] = set()
    plans = []
    for index in range(rounds):
        # The first round of a batch has everyone online.
        offline = (
            inputs.offline_set(rng, alive, offline)
            if index and inputs.workload.offline_frac
            else set()
        )
        expected, notified, senders = [], [], []
        for a, b in alive:
            if a in offline or b in offline:
                notified.extend(name for name in (a, b) if name not in offline)
                continue
            senders += [a, b]
            expected += [(a, b), (b, a)]
        plans.append(RoundPlan(
            payloads=inputs.payloads(batch * rounds + index, senders),
            offline=offline,
            expected=expected,
            notified=notified,
        ))
        alive = [(a, b) for a, b in alive if a not in offline and b not in offline]
    return plans


# -- output checks ------------------------------------------------------------------


@dataclass
class Checks:
    """Failure accounting over every checked round."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)
        else:
            self.problems[-1] = "... more problems"

    def check_round(self, deployment: Deployment, report, plan: RoundPlan) -> None:
        ell = deployment.ell()
        round_number = report.round_number
        if not report.all_chains_delivered() or len(report.chain_results) != deployment.num_chains:
            self.note(f"round {round_number}: not every chain delivered")
        if sorted(report.offline_users) != sorted(plan.offline):
            self.note(f"round {round_number}: offline users differ from the plan")
        if sorted(report.used_cover_for) != sorted(plan.offline):
            self.note(f"round {round_number}: covers not played for every offline user")
        online = [u.name for u in deployment.users if u.name not in plan.offline]
        for name in online:
            if report.mailbox_counts.get(name) != ell:
                self.note(f"round {round_number}: {name} got "
                          f"{report.mailbox_counts.get(name)} messages, not {ell}")
            kinds = [m.kind for m in report.delivered.get(name, [])]
            if ReceivedMessage.KIND_UNREADABLE in kinds:
                self.note(f"round {round_number}: {name} got an unreadable message")
        for sender, receiver in plan.expected:
            self.attempted += 1
            if report.conversation_payloads(receiver) != [plan.payloads[sender]]:
                self.failed += 1
        for name in plan.notified:
            kinds = [m.kind for m in report.delivered.get(name, [])]
            if ReceivedMessage.KIND_OFFLINE_NOTICE not in kinds:
                self.note(f"round {round_number}: {name} missed the offline notice")


# -- running ----------------------------------------------------------------------


class RoundClock:
    """Start and completion time of every round, hooked on one engine.

    Two timestamps per round, taken on the engine instance: when
    ``prepare`` is entered and when ``fetch`` returns.
    """

    def __init__(self, deployment: Deployment) -> None:
        self.started: Dict[int, float] = {}
        self.finished: Dict[int, float] = {}
        engine = deployment.engine
        prepare, fetch = engine.prepare, engine.fetch

        def timed_prepare(spec):
            started = time.perf_counter()
            ctx = prepare(spec)
            self.started[ctx.round_number] = started
            return ctx

        def timed_fetch(ctx):
            fetch(ctx)
            self.finished[ctx.round_number] = time.perf_counter()

        engine.prepare = timed_prepare
        engine.fetch = timed_fetch


@dataclass
class Batch:
    """Timings of one batch: the timed rounds and the batch's whole wall time."""

    round_numbers: List[int] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    submissions: List[int] = field(default_factory=list)
    wall_s: float = 0.0
    rounds: int = 0

    def add(self, report, wall: float) -> None:
        self.round_numbers.append(report.round_number)
        self.walls.append(wall)
        self.submissions.append(report.total_submissions)


class Session:
    """One deployment of a workload, set up and driven round by round."""

    def __init__(self, workload: Workload, seed: int, checks: Optional[Checks] = None) -> None:
        self.workload = workload
        self.inputs = Inputs(workload, seed)
        self.checks = checks if checks is not None else Checks()
        started = time.perf_counter()
        self.deployment = Deployment.create(workload.config(seed))
        self._converse()
        warmup = plan_batch(self.inputs, batch=-1, rounds=1)[0]
        self.deployment.run_round(payloads=warmup.payloads)
        self.setup_s = time.perf_counter() - started
        self.clock = RoundClock(self.deployment)
        self.batches = 0
        self.reports: List = []

    def _converse(self) -> None:
        for a, b in self.inputs.pairs:
            self.deployment.start_conversation(a, b)

    def run_batch(self, keep_reports: bool = False) -> "Batch":
        """Run one batch of rounds: one round when sequential.

        Sequential workloads time the ``run_round`` call.  Staggered ones run
        the batch as one ``run_rounds`` call and time the steady rounds
        only, as the gap between consecutive completions: the first
        completion carries the pipeline fill and the last round has no next
        round to overlap, so both are dropped.
        """
        workload, deployment = self.workload, self.deployment
        rounds = workload.batch_rounds if workload.staggered else 1
        plans = plan_batch(self.inputs, self.batches, rounds)
        self.batches += 1
        batch = Batch()
        if workload.staggered:
            self._converse()
            started = time.perf_counter()
            specs = [
                deployment.round_spec(payloads=plan.payloads, offline_users=plan.offline)
                for plan in plans
            ]
            reports = deployment.run_rounds(specs, staggered=True)
            batch.wall_s = time.perf_counter() - started
            finished = [self.clock.finished[r.round_number] for r in reports]
            for index in range(2, len(reports) - 1):
                batch.add(reports[index], finished[index] - finished[index - 1])
        else:
            started = time.perf_counter()
            reports = [deployment.run_round(payloads=plans[0].payloads)]
            batch.wall_s = time.perf_counter() - started
            batch.add(reports[0], batch.wall_s)
        batch.rounds = len(reports)
        for report, plan in zip(reports, plans):
            self.checks.check_round(deployment, report, plan)
        if keep_reports:
            self.reports.extend(reports)
        return batch

    def latency(self, round_number: int) -> float:
        """Seconds from a round's ``prepare`` to the return of its ``fetch``."""
        return self.clock.finished[round_number] - self.clock.started[round_number]

    def user_bytes(self) -> Tuple[float, float, int]:
        """One all-online round over the instrumented transport.

        Returns upload and download bytes per online user (submissions plus
        banked covers up, the mailbox fetch down) and the round's total
        wire bytes.  Runs outside any timed round.
        """
        deployment = self.deployment
        if self.workload.staggered:
            self._converse()
        instrumented = make_transport(TransportKind.INSTRUMENTED, group=deployment.group)
        deployment.use_transport(instrumented)
        plan = plan_batch(self.inputs, batch=-2, rounds=1)[0]
        report = deployment.run_round(payloads=plan.payloads)
        self.checks.check_round(deployment, report, plan)
        ledger = deployment.traffic_ledger
        online = len(deployment.users)
        up = ledger.total_bytes(report.round_number, kinds=UPLOAD_KINDS) / online
        down = ledger.total_bytes(report.round_number, kinds=DOWNLOAD_KINDS) / online
        total = ledger.total_bytes(report.round_number)
        deployment.use_transport(make_transport(TransportKind.INPROC))
        return up, down, total

    def close(self) -> None:
        self.deployment.close()


def release(session: Optional[Session]) -> None:
    if session is not None:
        session.close()
    gc.collect()
