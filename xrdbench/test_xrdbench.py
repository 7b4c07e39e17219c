"""Self-tests of the round benchmark at toy size (seconds, not minutes).

Run with ``python -m pytest xrdbench`` from the repository root.  Each check
the benchmark relies on is shown to fail when it should: a dropped payload,
a stage the trace does not cover, a kernel tier other than the recorded one,
and a directory without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Checks, Session, plan_batch  # noqa: E402

TOY = {
    "steady-ed25519": dict(users=6, pairs=2),
    "churn-staggered": dict(users=60, pairs=15, chunk_size=20, batch_rounds=6),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(name: str):
    return dataclasses.replace(WORKLOADS[name], **TOY[name])


@pytest.fixture(scope="module", autouse=True)
def native_tier():
    run.environment("modp")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(name):
    result = run.timed_run(toy(name), seed=3, seconds=0.5)
    assert result["checks"].correct
    assert result["checks"].attempted > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_digests_and_names_every_layer(name):
    result = run.traced_run(toy(name), seed=3, seconds=0.5)
    assert result["checks"].correct, result["checks"].problems
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if WORKLOADS[name].staggered:
        assert metrics["stagger.deferred_users"] > 0
        assert metrics["client.builds"] > 0
        assert metrics["stagger.mix_hidden_frac"] > 0
    else:
        assert metrics["engine.stage_coverage"] >= 0.95
        assert metrics["client.builds"] == 0


def test_dropped_payload_counts_as_failed_operation():
    session = Session(toy("steady-ed25519"), seed=4)
    try:
        plan = plan_batch(session.inputs, batch=0, rounds=1)[0]
        report = session.deployment.run_round(payloads=plan.payloads)
        clean = Checks()
        clean.check_round(session.deployment, report, plan)
        assert clean.correct and clean.failed == 0

        _, receiver = plan.expected[0]
        report.delivered[receiver] = [
            m for m in report.delivered[receiver] if m.kind != "conversation"
        ]
        dropped = Checks()
        dropped.check_round(session.deployment, report, plan)
        assert dropped.failed == 1 and dropped.attempted == clean.attempted
        assert not dropped.correct
    finally:
        session.close()


def test_missing_stage_wrapper_fails_the_coverage_check(monkeypatch):
    partial = tuple(t for t in tracer.TARGETS if t.metric != "engine.collect")
    full = tracer.Tracer
    monkeypatch.setattr(tracer, "Tracer", lambda: full(partial))
    with pytest.raises(tracer.TraceError, match="stage spans cover"):
        run.traced_run(toy("steady-ed25519"), seed=5, seconds=0.5)


def test_silent_wrapper_fails_the_traced_run():
    probe = tracer.Tracer()
    with probe:
        pass
    assert "repro.engine.round_engine:RoundEngine.mix" in probe.silent_targets("steady-ed25519")
    assert "repro.client.user:User.build_round_submissions" not in probe.silent_targets(
        "steady-ed25519"
    )


def test_tracer_restores_every_patched_function():
    import repro.crypto.aead as aead
    import repro.mixnet.ahs as ahs
    import repro.population.population as population

    before = (aead.adec_batch, ahs.adec_batch, population.adec_batch)
    with tracer.Tracer():
        assert ahs.adec_batch is aead.adec_batch is population.adec_batch
        assert aead.adec_batch is not before[0]
    assert (aead.adec_batch, ahs.adec_batch, population.adec_batch) == before


def test_kernel_tier_mismatch_is_a_setup_failure(monkeypatch, capsys):
    monkeypatch.setattr(run, "EXPECTED_TIER", "python")
    with pytest.raises(run.SetupError):
        run.environment("modp")
    code = run.main(["--workload", "churn-staggered", "--seed", "1", "--seconds", "1"])
    assert code == 3
    assert '"correct"' not in capsys.readouterr().out


def test_directory_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    command = BENCHMARK["command"] + ["--workload", "churn-staggered", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_follows_the_contract():
    assert sorted(BENCHMARK) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
