"""The three benchmark workloads, one pool member at a time.

A workload is a fixed pool of members.  Member ``i`` draws its programs
from ``derive_seed(BENCH_SEED, "perfbench", workload, i)``, so every
member's output can be pinned (``pinned.json``) and every run measures
the same work; ``--seed`` only orders the members.  Each member runs in
a fresh process on the serial backend, with budgets set by counts,
never by wall clock.

Each workload has three steps, all run in the child process:

* ``setup(seed, workdir)`` -> state: everything before the timed phase
  (for ``rerun-warm`` this includes the cold pass that fills the store);
* ``timed(state)`` -> result: the timed phase;
* ``outcome(state, result)`` -> ``(work, digest, problems)``: the work
  count behind the throughput metric, a digest of the output with no
  timings in it, and the output checks that failed.

``repro`` is imported inside the functions, so ``run.py`` can read the
pool sizes without the program on its path.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

#: The benchmark's own seed: every pool member derives from it.
BENCH_SEED = 2024

#: Members per pool; a run executes every member once per pass.
POOL_SIZE = {"campaign": 6, "fuzz": 2, "rerun-warm": 6}

#: What each workload's throughput counts (for the printed table).
WORK_NAME = {
    "campaign": "pair_runs_per_s",
    "fuzz": "novel_per_s",
    "rerun-warm": "pair_runs_per_s",
}

CAMPAIGN_FP64_PROGRAMS = 50
CAMPAIGN_FP32_PROGRAMS = 40
FUZZ_SEED_PROGRAMS = 12
FUZZ_INPUTS = 4
#: As `repro-fuzz --seed-programs 12 --inputs 4 --mutants 150`.
FUZZ_MUTANTS = 150
RERUN_PROGRAMS = 40
RERUN_INPUTS = 3
#: Warm passes per child, each reopening the store: the cold fill in
#: set-up costs more than one warm pass, so one would leave the timed
#: phase a small share of the child.
RERUN_WARM_PASSES = 3


def member_seed(workload: str, index: int) -> int:
    from repro.utils.rng import derive_seed

    return derive_seed(BENCH_SEED, "perfbench", workload, index)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------- campaign
def campaign_setup(seed: int, workdir: Path):
    from repro.harness.campaign import CampaignConfig

    # fp64, fp64_hipify and fp32 arms, the default 7 inputs, serial.
    return CampaignConfig(
        seed=seed,
        n_programs_fp64=CAMPAIGN_FP64_PROGRAMS,
        n_programs_fp32=CAMPAIGN_FP32_PROGRAMS,
        workers=0,
    )


def campaign_timed(config):
    from repro.harness.campaign import run_campaign

    return run_campaign(config)


def campaign_outcome(config, result):
    arms = [arm.to_json_dict() for arm in result.arms.values()]
    digest = _sha256(json.dumps(arms, sort_keys=True).encode("utf-8"))
    work = sum(arm.runs_per_compiler for arm in result.arms.values())
    return work, digest, []


# --------------------------------------------------------------------- fuzz
def fuzz_setup(seed: int, workdir: Path):
    from repro.fp.types import FPType
    from repro.fuzz.engine import FuzzConfig

    config = FuzzConfig(
        seed=seed,
        fptype=FPType.FP32,
        n_seed_programs=FUZZ_SEED_PROGRAMS,
        inputs_per_program=FUZZ_INPUTS,
        max_mutants=FUZZ_MUTANTS,
        minimize=True,
        search="bandit",
        workers=0,
    )
    return config, workdir / "findings.jsonl"


def fuzz_timed(state):
    from repro.fuzz.engine import run_fuzz

    config, ledger = state
    return run_fuzz(config, ledger=ledger)


def fuzz_outcome(state, result):
    _, ledger = state
    return len(result.findings), _sha256(ledger.read_bytes()), []


# --------------------------------------------------------------- rerun-warm
def _rerun_chunks(seed: int):
    from repro.compilers.options import PAPER_OPT_SETTINGS
    from repro.exec import SHARED_CACHE, RunnerSpec, SweepRequest
    from repro.varity.config import GeneratorConfig
    from repro.varity.corpus import build_corpus

    corpus = build_corpus(
        GeneratorConfig.fp32(inputs_per_program=RERUN_INPUTS),
        RERUN_PROGRAMS,
        root_seed=seed,
    )
    # One chunk per program: the native sweep plus its HIPIFY twin, as
    # the fuzzer evaluates a mutant.
    return [
        [
            SweepRequest(
                test=test, opts=PAPER_OPT_SETTINGS, tag=(tag,),
                cache=SHARED_CACHE, runner=RunnerSpec(),
            )
            for tag, test in (("native", t), ("hipify", t.hipified()))
        ]
        for t in corpus
    ]


def _rerun_pass(chunks, store_path: Path):
    from repro.exec import ExecutionService, RunStore, SerialBackend

    service = ExecutionService(
        SerialBackend(), RunStore(path=store_path, max_entries=4096)
    )
    totals = {"pair_runs": 0, "nvcc_executions": 0}
    keys = []
    try:
        for outcomes in service.run_sweeps(chunks):
            for o in outcomes:
                totals["pair_runs"] += o.pair_runs
                totals["nvcc_executions"] += o.nvcc_executions
                keys.extend(
                    (o.tag[0], d.test_id, d.input_index, d.opt_label, d.dclass.value)
                    for d in o.iter_discrepancies()
                )
    finally:
        service.close()
    return totals, sorted(keys)


def rerun_setup(seed: int, workdir: Path):
    chunks = _rerun_chunks(seed)
    store_path = workdir / "runs.store.jsonl"
    t0 = time.perf_counter()
    cold = _rerun_pass(chunks, store_path)
    return {
        "chunks": chunks,
        "store": store_path,
        "cold": cold,
        "cold_s": time.perf_counter() - t0,
    }


def rerun_timed(state):
    return [
        _rerun_pass(state["chunks"], state["store"]) for _ in range(RERUN_WARM_PASSES)
    ]


def rerun_outcome(state, result):
    cold_totals, cold_keys = state["cold"]
    problems = []
    for warm_totals, warm_keys in result:
        if warm_keys != cold_keys:
            problems.append("warm discrepancy keys differ from the cold pass")
        if warm_totals["nvcc_executions"] != 0:
            problems.append(
                f"warm pass executed {warm_totals['nvcc_executions']} nvcc runs (want 0)"
            )
        if warm_totals["pair_runs"] != cold_totals["pair_runs"]:
            problems.append("warm and cold pair-run counts differ")
    digest = _sha256(json.dumps(cold_keys).encode("utf-8"))
    return sum(totals["pair_runs"] for totals, _ in result), digest, problems


WORKLOADS = {
    "campaign": (campaign_setup, campaign_timed, campaign_outcome),
    "fuzz": (fuzz_setup, fuzz_timed, fuzz_outcome),
    "rerun-warm": (rerun_setup, rerun_timed, rerun_outcome),
}
