"""Per-layer tracing installed from outside the program.

The tracer wraps the public functions of each layer (listed in
:data:`TARGETS`) for the length of a traced run and restores them after.
A wrapper keeps per-thread aggregates in memory: calls, items, inclusive
time and self time (its span minus the spans of wrapped calls it made).
Coarse spans (engine stages, chains, population and mailbox calls) are
also kept whole, so the stagger overlap and the chain skew can be read
from their start and end times; :meth:`Tracer.write` writes them once at
the end of the run.

A function imported by name into several modules (``adec_batch`` lives in
``repro.crypto.aead``, ``repro.mixnet.ahs``, ``repro.population.population``
and ``repro.crypto.onion``) is replaced in every ``repro`` module that
holds it, so no call path escapes the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

ALL = "all"
ED25519 = ("steady-ed25519",)
#: The modp workload, which also runs the per-user path and the stagger.
CHURN = ("churn-staggered",)


def _len_arg(index: int, name: str) -> Callable:
    """Item count of a call: the length of one (positional or keyword) argument."""
    return lambda args, kwargs: len(args[index] if len(args) > index else kwargs[name])


def _one(args, kwargs) -> int:
    return 1


def _round_of_ctx(args, kwargs, result) -> int:
    # prepare(spec) returns the RoundContext; every later stage receives it.
    ctx = args[1] if hasattr(args[1], "round_number") else result
    return ctx.round_number


def _round_arg(args, kwargs, result) -> int:
    return args[1]


def _chain_round(args, kwargs, result) -> Tuple[int, int]:
    return (args[1], args[0].chain_id)


def _count_none(args, kwargs, result, parent) -> Dict[str, int]:
    return {"fallbacks": 1 if result is None else 0}


def _count_cascade(args, kwargs, result, parent) -> Dict[str, int]:
    """Trial decryptions of the population's fetch cascade, and how many open."""
    if parent != "population.decrypt":
        return {}
    return {"cascade_trials": len(result), "cascade_opened": sum(1 for ok, _ in result if ok)}


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it lives, what it is called in the trace."""

    owner: str  # "module" or "module:Class"
    attr: str
    metric: str
    #: Workloads on which this function must run (a zero count fails the run).
    required: Tuple[str, ...] = ()
    items: Callable = _one
    #: Picks another metric name from the call's arguments (cover builds).
    rename: Optional[Callable] = None
    observe: Optional[Callable] = None
    #: Keep every span (with this tag) instead of aggregates only.
    span_tag: Optional[Callable] = None


def _cover_variant(name: str) -> Callable:
    return lambda args, kwargs: name if kwargs.get("cover") else None


_ENGINE = "repro.engine.round_engine:RoundEngine"
_GROUPS = ("repro.crypto.group:Ed25519Group", "repro.crypto.group:ModPGroup")

TARGETS: Tuple[Target, ...] = (
    # engine stages (inclusive spans; their sum is the round)
    *(
        Target(_ENGINE, stage, f"engine.{stage}", (ALL,), span_tag=_round_of_ctx)
        for stage in ("prepare", "collect", "precompute", "mix", "deliver", "fetch")
    ),
    Target(_ENGINE, "finalize_collect", "engine.finalize_collect", (ALL,),
           items=lambda args, kwargs: len(args[1].deferred_users), span_tag=_round_of_ctx),
    Target(_ENGINE, "precompute_collected", "engine.precompute_collected", CHURN,
           span_tag=_round_of_ctx),
    Target(_ENGINE, "announce", "engine.announce", CHURN, span_tag=_round_arg),
    Target("repro.coordinator.network:Deployment", "chain_keys_view",
           "coordinator.chain_keys_view", (ALL,), span_tag=_round_arg),
    # population
    Target("repro.population.population:UserPopulation", "build_round_submissions_batch",
           "population.build", (ALL,), items=_len_arg(3, "users"),
           rename=_cover_variant("population.cover_build.inner"), span_tag=_round_arg),
    Target("repro.population.population:UserPopulation", "build_cover_submissions_batch",
           "population.cover_build", (ALL,), items=_len_arg(3, "users"), span_tag=_round_arg),
    Target("repro.population.population:UserPopulation", "decrypt_mailboxes_batch",
           "population.decrypt", (ALL,), items=_len_arg(2, "users"), span_tag=_round_arg),
    # client (per-user object path)
    Target("repro.client.user:User", "build_round_submissions", "client.build", CHURN,
           rename=_cover_variant("client.cover_build.inner")),
    Target("repro.client.user:User", "build_cover_submissions", "client.cover_build", CHURN),
    Target("repro.client.user:User", "decrypt_mailbox", "client.decrypt"),
    # mixnet
    Target("repro.mixnet.ahs:MixChain", "accept_submissions", "mixnet.accept", (ALL,),
           items=_len_arg(2, "submissions")),
    Target("repro.mixnet.ahs:MixChain", "precompute_round", "mixnet.precompute_round", (ALL,),
           items=_len_arg(2, "dh_publics")),
    Target("repro.mixnet.ahs:MixChain", "run_round", "mixnet.run_round", (ALL,),
           span_tag=_chain_round),
    Target("repro.mixnet.ahs:ChainMember", "process_round", "mixnet.member_process", (ALL,),
           items=_len_arg(2, "entries")),
    Target("repro.mixnet.blame", "run_blame_protocol", "mixnet.blame"),
    # crypto: group operations on both groups and the module-level batch helpers
    *(
        Target(group, op, f"crypto.{op}", required, items=items)
        for group, required in zip(_GROUPS, (ED25519, CHURN))
        for op, items in (
            ("base_mult", _one),
            ("scalar_mult", _one),
            ("scalar_mult_batch", _len_arg(1, "points")),
            ("fixed_point_mult_batch", _len_arg(2, "scalars")),
            ("multi_scalar_accumulate", _len_arg(1, "points")),
            ("decode", _one),
        )
        if not (group.endswith("Ed25519Group") and op == "fixed_point_mult_batch")
    ),
    Target("repro.crypto.group", "fixed_point_mult_batch", "crypto.fixed_point_mult_batch",
           (ALL,), items=_len_arg(2, "scalars")),
    Target("repro.crypto.group", "scalar_mult_batch", "crypto.scalar_mult_batch",
           (ALL,), items=_len_arg(1, "points")),
    Target("repro.crypto.group", "multi_scalar_accumulate", "crypto.multi_scalar_accumulate",
           items=_len_arg(1, "points")),
    # crypto: symmetric primitives and proofs
    Target("repro.crypto.kdf", "derive_key", "crypto.kdf", (ALL,)),
    Target("repro.crypto.aead", "aenc", "crypto.aead_seal"),
    Target("repro.crypto.aead", "aenc_batch", "crypto.aead_seal", (ALL,),
           items=_len_arg(0, "keys")),
    Target("repro.crypto.aead", "adec", "crypto.aead_open"),
    Target("repro.crypto.aead", "adec_batch", "crypto.aead_open", (ALL,), items=_len_arg(0, "keys"),
           observe=_count_cascade),
    Target("repro.crypto.nizk", "prove_dlog", "crypto.nizk_prove", (ALL,)),
    Target("repro.crypto.nizk", "prove_dleq", "crypto.nizk_prove", (ALL,)),
    Target("repro.crypto.nizk", "verify_dlog", "crypto.nizk_verify", (ALL,)),
    Target("repro.crypto.nizk", "verify_dleq", "crypto.nizk_verify", (ALL,)),
    # native kernel dispatch (None = declined, the reference path runs)
    Target("repro.crypto.kernels", "chacha20_blocks", "kernel.chacha20_blocks", (),
           items=_len_arg(0, "keys"), observe=_count_none),
    Target("repro.crypto.kernels", "aead_seal_batch", "kernel.aead_seal_batch", (ALL,),
           items=_len_arg(0, "keys"), observe=_count_none),
    Target("repro.crypto.kernels", "aead_open_batch", "kernel.aead_open_batch", (ALL,),
           items=_len_arg(0, "keys"), observe=_count_none),
    Target("repro.crypto.kernels", "modp_scalar_mult_batch", "kernel.modp_scalar_mult_batch",
           CHURN, items=_len_arg(1, "elements"), observe=_count_none),
    Target("repro.crypto.kernels", "modp_fixed_mult_batch", "kernel.modp_fixed_mult_batch",
           CHURN, items=_len_arg(2, "exponents"), observe=_count_none),
    Target("repro.crypto.kernels", "modp_multi_scalar_accumulate",
           "kernel.modp_multi_scalar_accumulate", CHURN, items=_len_arg(1, "elements"),
           observe=_count_none),
    # transport and mailbox
    Target("repro.transport.inproc:InProcTransport", "deliver", "transport.deliver", (ALL,),
           items=lambda args, kwargs: (
               len(args[1].payload) if isinstance(args[1].payload, list) else 1
           )),
    Target("repro.mailbox.mailbox:ShardedMailboxHub", "deliver_batch", "mailbox.deliver_batch",
           (ALL,), items=_len_arg(2, "messages")),
    Target("repro.mailbox.mailbox:ShardedMailboxHub", "fetch_batch", "mailbox.fetch_batch",
           (ALL,)),
)

KERNEL_FUNCTIONS = (
    "chacha20_blocks",
    "aead_seal_batch",
    "aead_open_batch",
    "modp_scalar_mult_batch",
    "modp_fixed_mult_batch",
    "modp_multi_scalar_accumulate",
)
GROUP_OPS = (
    "base_mult",
    "scalar_mult",
    "scalar_mult_batch",
    "fixed_point_mult_batch",
    "multi_scalar_accumulate",
    "decode",
)
STAGES = ("prepare", "collect", "finalize_collect", "precompute", "mix", "deliver", "fetch")


class TraceError(RuntimeError):
    """The traced run cannot be trusted (a wrapper saw no calls, low coverage)."""


class _Aggregate:
    __slots__ = ("calls", "items", "incl", "self_time", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.counters: Dict[str, int] = {}


class _ThreadData:
    """What one thread recorded; merged across threads when read."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.aggregates: Dict[str, _Aggregate] = {}
        self.target_calls: Dict[int, int] = {}
        self.spans: List[tuple] = []


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs the wrappers in :data:`TARGETS` and aggregates what they see."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self._local = threading.local()
        self._states: List[_ThreadData] = []
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self._main_thread = threading.get_ident()

    # -- installation ------------------------------------------------------------

    def install(self) -> "Tracer":
        for index, target in enumerate(self.targets):
            owner = _resolve(target.owner)
            original = vars(owner).get(target.attr)
            if original is None:
                raise TraceError(f"{target.owner}.{target.attr} does not exist")
            wrapper = self._wrap(index, target, original)
            self._patch(owner, target.attr, wrapper)
            if ":" not in target.owner:
                # Every other repro module that imported the function by name.
                for name, module in list(sys.modules.items()):
                    if module is owner or not name.startswith("repro"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _thread(self) -> _ThreadData:
        state = getattr(self._local, "data", None)
        if state is None:
            state = self._local.data = _ThreadData()
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, index: int, target: Target, original) -> Callable:
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = tracer._thread()
            metric = (target.rename and target.rename(args, kwargs)) or target.metric
            items = target.items(args, kwargs)
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [metric, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            aggregate = state.aggregates.get(metric)
            if aggregate is None:
                aggregate = state.aggregates[metric] = _Aggregate()
            aggregate.self_time += duration - frame[1]
            if parent is None or parent[0] != metric:
                # Only the outermost call of a metric counts (no double counts
                # when a module helper delegates to the group method).
                aggregate.calls += 1
                aggregate.items += items
                aggregate.incl += duration
            state.target_calls[index] = state.target_calls.get(index, 0) + 1
            if target.observe is not None:
                counters = aggregate.counters
                observed = target.observe(args, kwargs, result, parent and parent[0])
                for key, value in observed.items():
                    counters[key] = counters.get(key, 0) + value
            if target.span_tag is not None:
                state.spans.append((
                    metric,
                    threading.get_ident(),
                    start,
                    end,
                    parent[0] if parent is not None else None,
                    target.span_tag(args, kwargs, result),
                ))
            return result

        return traced

    # -- reading -------------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up calls)."""
        for state in self._states:
            state.aggregates.clear()
            state.target_calls.clear()
            state.spans.clear()

    def aggregates(self) -> Dict[str, _Aggregate]:
        merged: Dict[str, _Aggregate] = {}
        for state in self._states:
            for metric, aggregate in state.aggregates.items():
                into = merged.setdefault(metric, _Aggregate())
                into.calls += aggregate.calls
                into.items += aggregate.items
                into.incl += aggregate.incl
                into.self_time += aggregate.self_time
                for key, value in aggregate.counters.items():
                    into.counters[key] = into.counters.get(key, 0) + value
        return merged

    def spans(self) -> List[tuple]:
        return sorted(
            (span for state in self._states for span in state.spans), key=lambda s: s[2]
        )

    def target_calls(self) -> Dict[int, int]:
        calls: Dict[int, int] = {}
        for state in self._states:
            for index, count in state.target_calls.items():
                calls[index] = calls.get(index, 0) + count
        return calls

    def silent_targets(self, workload: str) -> List[str]:
        """Wrappers that saw no call although their layer must run here."""
        calls = self.target_calls()
        return [
            f"{target.owner}.{target.attr}"
            for index, target in enumerate(self.targets)
            if (ALL in target.required or workload in target.required)
            and calls.get(index, 0) == 0
        ]

    def write(self, path: str, header: dict) -> None:
        """Write the kept spans and the per-name aggregates once, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for metric, aggregate in sorted(self.aggregates().items()):
                out.write(json.dumps({
                    "aggregate": metric,
                    "calls": aggregate.calls,
                    "items": aggregate.items,
                    "incl_s": aggregate.incl,
                    "self_s": aggregate.self_time,
                    **aggregate.counters,
                }) + "\n")
            main = self._main_thread
            for name, thread, start, end, parent, tag in self.spans():
                out.write(json.dumps({
                    "span": name,
                    "thread": "main" if thread == main else "worker",
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "tag": tag,
                }) + "\n")

    # -- per-layer metrics -----------------------------------------------------------

    def layer_metrics(self, rounds: int, round_wall_s: float) -> Dict[str, float]:
        """Per-round layer figures over the traced rounds.

        ``round_wall_s`` is the traced rounds' total wall time.  Times are
        inclusive seconds per round (self times are in the written trace);
        counts are per round.
        """
        aggregates = self.aggregates()
        empty = _Aggregate()

        def agg(metric: str) -> _Aggregate:
            return aggregates.get(metric, empty)

        def per_round(value: float) -> float:
            return value / rounds

        metrics: Dict[str, float] = {}
        stage_total = 0.0
        for stage in STAGES:
            seconds = agg(f"engine.{stage}").incl
            if stage == "precompute":
                seconds += agg("engine.precompute_collected").incl
            stage_total += seconds
            metrics[f"engine.{stage}_s"] = per_round(seconds)
        metrics["engine.stage_coverage"] = stage_total / round_wall_s

        join_wait, mix_off_main = self._stagger_wait()
        metrics["stagger.join_wait_s"] = per_round(join_wait)
        metrics["stagger.mix_hidden_frac"] = (
            max(0.0, 1.0 - join_wait / mix_off_main) if mix_off_main else 0.0
        )
        metrics["stagger.deferred_users"] = per_round(agg("engine.finalize_collect").items)

        metrics["coordinator.chain_keys_view_s"] = per_round(
            agg("coordinator.chain_keys_view").incl
        )

        cover = agg("population.cover_build")
        metrics["population.build_s"] = per_round(agg("population.build").incl)
        metrics["population.cover_build_s"] = per_round(cover.incl)
        metrics["population.decrypt_s"] = per_round(agg("population.decrypt").incl)
        batched = agg("population.build").items
        per_user = agg("client.build").calls
        metrics["population.users_built"] = per_round(batched)
        metrics["population.fast_path_frac"] = (
            batched / (batched + per_user) if batched + per_user else 0.0
        )

        metrics["client.build_s"] = per_round(
            agg("client.build").incl + agg("client.cover_build").incl
        )
        metrics["client.builds"] = per_round(per_user)
        metrics["client.decrypt_s"] = per_round(agg("client.decrypt").incl)

        for name in ("accept", "precompute_round", "run_round", "member_process"):
            metrics[f"mixnet.{name}_s"] = per_round(agg(f"mixnet.{name}").incl)
        metrics["mixnet.entries"] = per_round(agg("mixnet.accept").items)
        metrics["mixnet.chain_skew"] = self._chain_skew()
        metrics["mixnet.blame_runs"] = float(agg("mixnet.blame").calls)

        for op in GROUP_OPS:
            op_agg = agg(f"crypto.{op}")
            metrics[f"crypto.{op}.calls"] = per_round(op_agg.calls)
            metrics[f"crypto.{op}.items"] = per_round(op_agg.items)
            metrics[f"crypto.{op}.s"] = per_round(op_agg.incl)
        metrics["crypto.kdf.calls"] = per_round(agg("crypto.kdf").calls)
        metrics["crypto.kdf.s"] = per_round(agg("crypto.kdf").incl)
        for name in ("aead_seal", "aead_open"):
            metrics[f"crypto.{name}.items"] = per_round(agg(f"crypto.{name}").items)
            metrics[f"crypto.{name}.s"] = per_round(agg(f"crypto.{name}").incl)
        metrics["crypto.aead_open.ok_frac"] = self._cascade_ok_frac()
        for name in ("nizk_prove", "nizk_verify"):
            metrics[f"crypto.{name}.calls"] = per_round(agg(f"crypto.{name}").calls)
            metrics[f"crypto.{name}.s"] = per_round(agg(f"crypto.{name}").incl)

        kernel_calls = kernel_fallbacks = 0
        for name in KERNEL_FUNCTIONS:
            kernel = agg(f"kernel.{name}")
            metrics[f"kernel.{name}.items"] = per_round(kernel.items)
            metrics[f"kernel.{name}.s"] = per_round(kernel.incl)
            kernel_calls += kernel.calls
            kernel_fallbacks += kernel.counters.get("fallbacks", 0)
        metrics["kernel.fallback_frac"] = kernel_fallbacks / kernel_calls if kernel_calls else 0.0

        metrics["transport.envelopes"] = per_round(agg("transport.deliver").calls)
        metrics["transport.items"] = per_round(agg("transport.deliver").items)
        metrics["transport.deliver_s"] = per_round(agg("transport.deliver").incl)

        metrics["mailbox.deliver_batch_s"] = per_round(agg("mailbox.deliver_batch").incl)
        metrics["mailbox.fetch_batch_s"] = per_round(agg("mailbox.fetch_batch").incl)
        metrics["mailbox.messages"] = per_round(agg("mailbox.deliver_batch").items)
        return metrics

    def _stagger_wait(self) -> Tuple[float, float]:
        """Coordinator time spent joining the in-flight mix, and off-thread mix time.

        The coordinator thread's top-level engine spans run back to back; a
        gap right before a ``deliver`` span is the join waiting for the mix
        running on the worker thread.  Sequential rounds mix on the main
        thread and leave no such gap.
        """
        main = self._main_thread
        spans = self.spans()
        top = [s for s in spans if s[1] == main and s[0].startswith("engine.") and s[4] is None]
        wait = 0.0
        for previous, span in zip(top, top[1:]):
            if span[0] == "engine.deliver" and previous[0] != "engine.mix":
                wait += max(0.0, span[2] - previous[3])
        mix_off_main = sum(s[3] - s[2] for s in spans if s[0] == "engine.mix" and s[1] != main)
        return wait, mix_off_main

    def _chain_skew(self) -> float:
        """Median over rounds of slowest chain's ``run_round`` over the mean."""
        by_round: Dict[int, List[float]] = {}
        for name, _, start, end, _, tag in self.spans():
            if name == "mixnet.run_round":
                by_round.setdefault(tag[0], []).append(end - start)
        skews = [max(times) / statistics.fmean(times) for times in by_round.values() if times]
        return statistics.median(skews) if skews else 0.0

    def _cascade_ok_frac(self) -> float:
        """Share of the fetch cascade's trial decryptions that authenticate."""
        counters = self.aggregates().get("crypto.aead_open", _Aggregate()).counters
        trials = counters.get("cascade_trials", 0)
        return counters.get("cascade_opened", 0) / trials if trials else 0.0
