"""The feedback-guided fuzzing loop.

One *iteration* = pick a seed from the pool (power-scheduled), pick a
mutation, produce a mutant, and — if it is structurally valid and not a
duplicate — run it through the shared execution layer: one
:class:`~repro.exec.units.SweepRequest` per arm submitted to
:class:`~repro.exec.service.ExecutionService`, with the HIPIFY twin's
CUDA half replayed from the content-keyed run store exactly as the
campaign's fused fp64 arms do (a mutant and its twin share one content
id, so the hipify probe costs zero extra nvcc executions).

Feedback: every discrepancy is triaged
(:func:`repro.analysis.triage.triage_discrepancy`) and condensed to a
:class:`~repro.fuzz.signature.DiscrepancySignature`.  A signature not
seen before — neither in the seed pool's own baseline nor in any earlier
finding — is a **novel finding**: it is auto-minimized with
:func:`repro.analysis.reduce.reduce_testcase`, appended to the ledger,
and fed back three ways:

* the mutant joins the seed pool and its parent's energy grows, so the
  power schedule drifts toward regions of program space that keep
  yielding new mechanisms;
* the arm that produced it gains scheduling weight (an AFL-style bandit
  over the seven mutators plus an *explore* arm that evaluates a fresh
  generated program: a session whose novelty comes from call
  substitution spends its budget there; a session whose pool runs dry
  drifts back toward blind generation);
* splice donors are drawn energy-weighted, so divergence-prone
  subexpressions get transplanted into fresh contexts.

That is the difference from the paper's blind generation: runs are spent
*near* known divergence, not uniformly.  All three feedback channels are
functions of the ledger's findings alone, which is what keeps a resumed
session on the same trajectory as an uninterrupted one.

Determinism: every random decision derives from
``derive_seed(config.seed, purpose, iteration)``, the pool evolves only
through ledger-recorded findings, and no wall-clock value feeds back into
scheduling — so a seeded session run twice writes byte-identical ledgers,
and an interrupted session resumed from its ledger produces the same
findings as an uninterrupted one.  (A ``max_seconds`` budget can stop a
session early between iterations; the *prefix* of findings is still
deterministic.)

Parallelism (``config.workers``): iteration *i*'s selection depends only
on scheduler wins, the pool, and the dedup set — none of which change
while evaluations come back clean — so the engine *speculates* a window
of upcoming iterations against the frozen state, evaluates their mutants
concurrently through the service's process-pool backend, and commits the
results in iteration order.  The first discrepant iteration changes the
pool, invalidating everything speculated after it; those outcomes are
discarded (their runs are not counted) and speculation restarts from the
updated state.  The committed trajectory is therefore *exactly* the
serial one: the ledger is byte-identical at every worker count.  Triage
of a discrepant mutant's findings fans out over the same pool.
Speculation pays off in proportion to how rarely mutants diverge — an
FP64 session parallelizes almost perfectly, a divergence-rich FP32
session mainly gains on the seed-pool baseline and triage.

Accounting: ``pair_runs`` counts compared record pairs in baseline and
mutation sweeps of *committed* iterations; discarded speculation, triage
probes, and minimization reruns are excluded, mirroring how the paper's
run totals count campaign runs, not debugging reruns.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.analysis.reduce import kernel_size, reduce_testcase
from repro.analysis.triage import Cause, TriageVerdict, triage_batch
from repro.codegen.cuda import render_cuda
from repro.compilers.options import OptSetting, PAPER_OPT_SETTINGS
from repro.errors import HarnessError, ReproError
from repro.exec import (
    CHUNK_CACHE,
    DerivedTestSpec,
    ExecutionService,
    SweepOutcome,
    SweepRequest,
    content_id,
    content_text,
    resolve_backend,
)
from repro.exec.units import RunnerSpec
from repro.fp.classify import OutcomeClass
from repro.fp.types import FPType
from repro.fuzz.ledger import (
    Finding,
    FindingsLedger,
    LedgerState,
    LineageStep,
    Promotion,
    SearchTrace,
)
from repro.fuzz.mutators import MUTATION_NAMES, MUTATORS, apply_mutation
from repro.fuzz.search import MctsSearch, PreparedIteration as _Prep
from repro.fuzz.signature import DiscrepancySignature, signature_histogram
from repro.harness.differential import Discrepancy, classify_pair
from repro.harness.runner import DifferentialRunner, PairResult
from repro.ir.program import Kernel, Program
from repro.ir.validate import validate_kernel
from repro.oracle.engine import build_relation_requests, check_relation_outcomes
from repro.oracle.relations import Relation, RelationViolation, resolve_relations
from repro.stacks import DEFAULT_STACK_PAIR, pair_name, resolve_stacks, stack_pairs
from repro.telemetry.spans import get_tracer
from repro.utils.rng import derive_seed
from repro.utils.tables import Table
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus, build_corpus_slice
from repro.varity.testcase import TestCase

__all__ = [
    "FuzzConfig",
    "FuzzResult",
    "RandomSessionResult",
    "run_fuzz",
    "run_random_session",
]


@dataclass(frozen=True)
class FuzzConfig:
    """Size and shape of one fuzzing session."""

    seed: int = 2024
    #: FP32 by default: it is the paper's richest discrepancy surface
    #: (fast-math approximations + FTZ asymmetry exist only there), so a
    #: default session finds material quickly; pass FP64 for the paper's
    #: primary arm.
    fptype: FPType = FPType.FP32
    n_seed_programs: int = 40
    inputs_per_program: int = 3
    #: total mutation iterations for the session (across resumes).
    max_mutants: int = 200
    #: optional wall-clock budget; checked between iterations.
    max_seconds: Optional[float] = None
    batch_size: int = 25
    opts: Tuple[OptSetting, ...] = PAPER_OPT_SETTINGS
    #: probe each mutant's HIPIFY twin too (CUDA half served by the cache).
    include_hipify: bool = True
    #: give the scheduler an "explore" arm that evaluates a brand-new
    #: generated program instead of mutating — the hybrid
    #: generation/mutation strategy.  The bandit decides how much budget
    #: exploration deserves: when the pool's neighborhoods run dry it
    #: degrades gracefully toward blind generation, and when they are
    #: rich it concentrates on mutation.
    explore: bool = True
    #: energy added to a seed for each novel signature it (or its mutant)
    #: produced — the power schedule's feedback term.
    novelty_bonus: float = 8.0
    #: selection energy of promoted (discrepant-but-known-signature)
    #: queue entries; kept near the cold-seed weight so the queue widens
    #: the search without drowning out confirmed-novel regions.
    promotion_energy: float = 1.0
    #: delta-debug every novel finding down to a minimal reproducer.
    minimize: bool = True
    mutations: Tuple[str, ...] = MUTATION_NAMES
    #: metamorphic-oracle relations checked on every evaluated program
    #: (empty = off).  A relation violation is condensed to an
    #: ``oracle:<relation>`` signature, so relation-breaking mutants feed
    #: the same novelty loop — pool energy, bandit wins, ledger — as
    #: cross-vendor discrepancies, steering the search toward them.  The
    #: relations' base sweeps dedup against the mutant's own native
    #: request, so base-reading relations cost zero extra runs.
    oracle_relations: Tuple[str, ...] = ()
    #: Num/Num drift budget (ULPs) for approximate oracle relations.
    oracle_ulp_bound: int = 4
    #: compiler stacks every evaluation sweeps: each 2-combination is one
    #: differential probe per mutant (the legacy pair keeps its "native"/
    #: "hipify" arms; extra pairs are tagged by their pair name and their
    #: nvcc-lhs halves replay from the mutant's chunk store).
    stacks: Tuple[str, ...] = DEFAULT_STACK_PAIR
    #: process-pool size for mutant evaluation (0/1 = serial).  Pure
    #: scheduling: the committed trajectory — and the ledger — is
    #: byte-identical at every worker count, which is why ``workers`` is
    #: excluded from :meth:`fingerprint` exactly like the campaign
    #: checkpoint's.
    workers: int = 0
    #: Execution backend (None = worker-count rule; "serial"/"pool"/
    #: "bridge").  Pure scheduling, like ``workers`` — excluded from the
    #: fingerprint.
    backend: Optional[str] = None
    bridge_url: Optional[str] = None
    #: iteration-selection strategy.  ``"bandit"`` (the default) is the
    #: flat win-count bandit over mutators; ``"mcts"`` is UCB1 tree
    #: search over IR-edit sequences (:mod:`repro.fuzz.search`), whose
    #: reward blends signature novelty, oracle violations, and grammar
    #: coverage.  Result-determining, so part of the fingerprint
    #: (format 5) — but only in mcts mode, keeping bandit ledgers
    #: byte-compatible.
    search: str = "bandit"

    def __post_init__(self) -> None:
        if self.n_seed_programs < 1:
            raise HarnessError("n_seed_programs must be >= 1")
        if self.batch_size < 1:
            raise HarnessError("batch_size must be >= 1")
        if self.max_mutants < 0:
            raise HarnessError("max_mutants must be >= 0")
        if self.workers < 0:
            raise HarnessError("workers must be >= 0")
        unknown = [m for m in self.mutations if m not in MUTATORS]
        if unknown:
            raise HarnessError(f"unknown mutations: {', '.join(unknown)}")
        try:
            resolve_relations(self.oracle_relations)
        except ValueError as exc:
            raise HarnessError(str(exc)) from None
        resolve_stacks(self.stacks)  # raises HarnessError on bad names
        if self.search not in ("bandit", "mcts"):
            raise HarnessError(
                f"unknown search strategy: {self.search!r} (bandit or mcts)"
            )

    @property
    def corpus_seed(self) -> int:
        return derive_seed(self.seed, "fuzz-corpus", self.fptype.value)

    def generator_config(self) -> GeneratorConfig:
        cfg = GeneratorConfig(
            fptype=self.fptype, inputs_per_program=self.inputs_per_program
        )
        cfg.validate()
        return cfg

    def fingerprint(self) -> Dict[str, object]:
        """The result-determining identity of this config.

        Budgets (``max_mutants``, ``max_seconds``) are excluded: they only
        say how *far* to run the deterministic iteration stream, so a
        ledger written under a smaller budget resumes under a larger one —
        the fuzz analogue of the campaign checkpoint's ``workers`` rule.
        ``workers`` is excluded for the same reason it is there: it only
        changes scheduling, never results.

        Compatibility: the ``format`` key versions the ledger record
        vocabulary.  Format 2 (the FP16 lane) added the ``precision-cast``
        mutation to the default set and a ``fptype`` field to every
        signature, so format-1 ledgers no longer resume under default
        configs — strict ``--resume`` reports the mismatch, ``"auto"``
        starts fresh.  A format-1 session can still be *continued* by an
        old checkout; it cannot be continued by this engine, whose
        scheduler would disagree with the recorded trajectory.

        Format 3 is the metamorphic-oracle lane: a session with
        ``oracle_relations`` signs relation violations as
        ``oracle:<relation>`` causes — a signature vocabulary format 2
        cannot express — and its findings feed the scheduler, so its
        trajectory is not replayable by a format-2 engine.  The format-3
        keys (``format: 3``, ``oracle_relations``, ``oracle_ulp_bound``)
        are emitted only when the oracle is on; a config without
        relations fingerprints exactly as format 2, which is why every
        existing format-2 ledger still resumes under non-oracle configs
        (tested explicitly).

        Format 4 is the stack registry: a session with a non-default
        ``stacks`` selection signs per-pair findings (a ``stacks``
        segment in the signature key) and sweeps per-pair requests whose
        discrepancies feed the scheduler, so its trajectory is not
        replayable by a two-stack engine.  The format-4 keys (``format:
        4``, ``stacks``) are emitted only for non-default selections; a
        default-pair config fingerprints exactly as before, so every
        format-2 and format-3 ledger still resumes (tested explicitly).

        Format 5 is tree search: an mcts session's batch lines carry a
        per-iteration ``search`` trace (selected node + reward) that a
        bandit engine cannot replay, and its selection reads tree
        statistics no bandit ledger records.  The format-5 keys
        (``format: 5``, ``search``) are emitted only when ``search`` is
        not the default bandit, so every format-2/3/4 ledger still
        resumes under default-search configs (tested explicitly).
        """
        fp: Dict[str, object] = {
            "format": 2,
            "seed": self.seed,
            "fptype": self.fptype.value,
            "n_seed_programs": self.n_seed_programs,
            "inputs_per_program": self.inputs_per_program,
            "batch_size": self.batch_size,
            "opts": [o.label for o in self.opts],
            "include_hipify": self.include_hipify,
            "explore": self.explore,
            "novelty_bonus": self.novelty_bonus,
            "promotion_energy": self.promotion_energy,
            "minimize": self.minimize,
            "mutations": list(self.mutations),
        }
        if self.oracle_relations:
            fp["format"] = 3
            fp["oracle_relations"] = list(self.oracle_relations)
            fp["oracle_ulp_bound"] = self.oracle_ulp_bound
        if tuple(self.stacks) != DEFAULT_STACK_PAIR:
            fp["format"] = 4
            fp["stacks"] = list(self.stacks)
        if self.search != "bandit":
            fp["format"] = 5
            fp["search"] = self.search
        return fp


class _Scheduler:
    """Win-count bandit over the iteration's action.

    The arms are the registered mutators plus (when enabled) "explore" —
    evaluate a fresh generated program instead of mutating.  An arm's
    selection weight is ``1 + its novel-signature findings so far``, so
    budget flows to whatever is currently paying: a barren pool drifts
    toward blind generation, a rich one concentrates on the mutators that
    keep producing.  (Novelty rewards arrive in bursts — one divergent
    program can yield several signatures across optimization settings —
    which is why the simple win-count rule empirically beats rate-
    normalized and UCB variants at session-sized attempt counts: it
    commits to a paying region immediately instead of waiting for rate
    estimates to stabilize.)

    :meth:`select` is pure — it reads wins but mutates nothing — so the
    speculative window can look several iterations ahead against frozen
    state; attempts are counted at *commit* time, in iteration order.

    Determinism/resume: wins are replayed from ledger findings (a
    finding with an empty lineage is an explore win), and attempts from
    re-simulating the selection sequence — selection at iteration *i*
    depends only on prior selections and prior findings, both of which
    the ledger determines — so a resumed scheduler is in exactly the
    state the interrupted one was.
    """

    def __init__(self, config: "FuzzConfig") -> None:
        self.explore_enabled = config.explore
        self.mutations = config.mutations
        self.arms: Tuple[str, ...] = (
            ("explore",) if config.explore else ()
        ) + config.mutations
        self.attempts: Dict[str, int] = {a: 0 for a in self.arms}
        self.wins: Dict[str, int] = {a: 0 for a in self.arms}

    def select(self, rng: random.Random) -> str:
        """Choose this iteration's action (no state is touched)."""
        return rng.choices(
            self.arms, weights=[1 + self.wins[a] for a in self.arms], k=1
        )[0]

    def count_attempt(self, arm: str) -> None:
        self.attempts[arm] += 1

    def pick(self, rng: random.Random) -> str:
        """Choose and count in one step (the resume-replay path)."""
        arm = self.select(rng)
        self.count_attempt(arm)
        return arm

    def record_win(self, arm: str) -> None:
        if arm in self.wins:
            self.wins[arm] += 1


@dataclass
class _PoolEntry:
    """One power-scheduled seed: a corpus program or a promoted mutant."""

    test: TestCase
    corpus_index: int
    lineage: Tuple[LineageStep, ...]
    content: str
    energy: float = 1.0

    @property
    def key(self) -> Tuple[int, Tuple[LineageStep, ...]]:
        return (self.corpus_index, self.lineage)


@dataclass
class FuzzResult:
    """Everything one fuzz session measured and found."""

    config: FuzzConfig
    findings: List[Finding]
    baseline_signatures: List[DiscrepancySignature]
    hot_seed_indices: List[int]
    iterations: int
    resumed_iterations: int
    mutants_run: int = 0
    fresh_explored: int = 0
    mutants_no_site: int = 0
    mutants_invalid: int = 0
    mutants_noop: int = 0
    duplicates: int = 0
    pair_runs: int = 0
    baseline_pair_runs: int = 0
    raw_discrepancies: int = 0
    #: metamorphic-relation violations observed on committed iterations
    #: (only nonzero when the session ran with oracle relations).
    oracle_violations: int = 0
    nvcc_executions: int = 0
    nvcc_cache_hits: int = 0
    elapsed_seconds: float = 0.0
    stopped_by: str = "budget"
    #: per-batch wall time ``(start_iteration, stop_iteration, seconds)``
    #: from the tracer — populated only when tracing is on; telemetry
    #: only, never serialized into the ledger.
    batch_walls: List[Tuple[int, int, float]] = field(default_factory=list)
    #: execution-service counters (see
    #: :meth:`repro.exec.ExecutionService.stats`), including the
    #: always-on ``phase_seconds`` aggregates.  Out-of-band like
    #: ``elapsed_seconds``.
    exec_metrics: Dict[str, object] = field(default_factory=dict)
    #: tree statistics from :meth:`repro.fuzz.search.MctsSearch.stats`
    #: (mcts sessions only; empty for bandit).  Out-of-band telemetry.
    search_stats: Dict[str, object] = field(default_factory=dict)
    #: grammar-feature coverage summary
    #: (:meth:`repro.fuzz.coverage.CoverageTracker.as_dict`; mcts only).
    coverage: Dict[str, object] = field(default_factory=dict)

    @property
    def novel_signatures(self) -> List[DiscrepancySignature]:
        return [f.signature for f in self.findings]

    @property
    def novel_signature_keys(self) -> Set[str]:
        return {f.signature.key for f in self.findings}

    @property
    def cache_hit_rate(self) -> float:
        attempts = self.nvcc_executions + self.nvcc_cache_hits
        return self.nvcc_cache_hits / attempts if attempts else 0.0

    def histogram(self) -> Table:
        return signature_histogram(
            self.novel_signatures, title="Novel discrepancy signatures (fuzz findings)"
        )


@dataclass
class RandomSessionResult:
    """Pure blind generation at the same run budget, for comparison."""

    n_programs: int
    pair_runs: int = 0
    raw_discrepancies: int = 0
    #: relation violations observed (only nonzero when the shared config
    #: ran with oracle relations — keeps the control arm's oracle signal
    #: comparable to the fuzz session's).
    oracle_violations: int = 0
    novel_signatures: List[DiscrepancySignature] = field(default_factory=list)

    @property
    def novel_signature_keys(self) -> Set[str]:
        return {s.key for s in self.novel_signatures}


# ---------------------------------------------------------------------------
# Shared evaluation machinery
# ---------------------------------------------------------------------------


def _mutant_content_id(fptype: FPType, content: str) -> str:
    """Mutant program ids keep their historical ``fuzz-`` shape."""
    return content_id(fptype, content, prefix="fuzz")


class _Found(NamedTuple):
    """One evaluation discrepancy, its arm, and the arm's O0 pair result
    (``None`` when the session's opts omit O0), which the triage O0
    probe reads instead of re-running."""

    arm: str
    discrepancy: Discrepancy
    o0: Optional[PairResult]


@functools.lru_cache(maxsize=None)
def _pair_runner(stacks: Tuple[str, str]) -> DifferentialRunner:
    """The triage/minimization runner for one stack pair, built once per
    process (runs are pure, so sharing it never changes a result)."""
    return DifferentialRunner(stacks=stacks)


def _triage_verdict_task(
    payload: Tuple[
        TestCase, Tuple[str, str], Tuple[Tuple[str, int], ...], Optional[PairResult]
    ],
) -> List[TriageVerdict]:
    """Triage one (mutant, arm) group of discrepancies, in process or in
    a pool worker.

    Runner construction and triage probes are pure functions of the
    payload (including the group's stack pair), so a worker's verdicts
    are identical to the in-process ones.  The isolation reports
    (execution traces) are stripped before pickling back — nothing
    downstream of signature construction reads them.
    """
    test, stacks, targets, o0 = payload
    verdicts = triage_batch(
        _pair_runner(stacks),
        test,
        [(OptSetting.from_label(label), index) for label, index in targets],
        o0,
    )
    for verdict in verdicts:
        verdict.isolation = None
    return verdicts


class _Evaluator:
    """Runs tests through the execution service and condenses
    discrepancies (and oracle violations) to signatures."""

    def __init__(self, config: FuzzConfig, service: ExecutionService) -> None:
        self.config = config
        self.service = service
        self.relations: List[Relation] = (
            resolve_relations(config.oracle_relations)
            if config.oracle_relations
            else []
        )
        #: the stack pairs each evaluation sweeps, in registry order.
        self.pairs: List[Tuple[str, str]] = list(
            stack_pairs(resolve_stacks(config.stacks))
        )
        self._pair_by_arm: Dict[str, Tuple[str, str]] = {
            pair_name(p): p for p in self.pairs if p != DEFAULT_STACK_PAIR
        }
        self.pair_runs = 0
        self.cache_hits = 0
        self.executions = 0

    def pair_for_arm(self, arm: str) -> Tuple[str, str]:
        """The stack pair behind an evaluation arm tag ("native"/"hipify"
        are the legacy pair; everything else is its own pair name)."""
        return self._pair_by_arm.get(arm, DEFAULT_STACK_PAIR)

    def runner_for(self, arm: str) -> DifferentialRunner:
        """A triage/minimization runner on the arm's own stack pair (its
        device runs are bookkept by those tools, not by the evaluation)."""
        return _pair_runner(self.pair_for_arm(arm))

    def chunk_for(self, test: TestCase) -> List[SweepRequest]:
        """One evaluation as one chunk: the native sweep, then the HIPIFY
        twin with its CUDA half replayed from the chunk's run store (the
        campaign's fused-arm reuse invariant, applied per mutant), then —
        with oracle relations on — each relation's base + variant
        requests.  The relations' base requests are content-identical to
        the native one, so the service dedups them to zero extra runs.
        Extra stack pairs (``config.stacks`` beyond the legacy two) add
        one request each, tagged by pair name; nvcc-lhs pairs replay the
        native sweep's CUDA half from the same chunk store.  The store
        lives one chunk: content dedup already prevents identical mutants
        from re-running, so entries could only ever be hit by the test's
        own twin/pair probes, and chunk scope keeps the counters
        identical at every worker count."""
        requests = []
        for pair in self.pairs:
            if pair == DEFAULT_STACK_PAIR:
                requests.append(
                    SweepRequest(
                        test=test,
                        opts=self.config.opts,
                        tag=("native",),
                        cache=CHUNK_CACHE,
                    )
                )
                if self.config.include_hipify:
                    # DerivedTestSpec references the *same* TestCase as
                    # the native request: pickle's memo then ships the
                    # program IR once per chunk to pool workers.
                    requests.append(
                        SweepRequest(
                            test=DerivedTestSpec(base=test),
                            opts=self.config.opts,
                            tag=("hipify",),
                            cache=CHUNK_CACHE,
                        )
                    )
            else:
                requests.append(
                    SweepRequest(
                        test=test,
                        opts=self.config.opts,
                        tag=(pair_name(pair),),
                        cache=CHUNK_CACHE,
                        runner=RunnerSpec(stacks=pair),
                    )
                )
        requests.extend(self._oracle_requests(test))
        return requests

    def _oracle_requests(self, test: TestCase) -> List[SweepRequest]:
        """Per-relation base + variant requests for one test.

        Site choices derive from the test's content-stable id, so a
        resumed (or speculated-and-discarded) evaluation rebuilds the
        identical variants.  Construction and applicability policy are
        the oracle engine's own (:func:`build_relation_requests`).
        """
        requests, _ = build_relation_requests(
            test, "oracle", self.config.seed, test.test_id, self.relations,
            self.config.opts,
        )
        return requests

    def absorb(
        self, outcomes: Sequence[SweepOutcome]
    ) -> Tuple[List[_Found], List[RelationViolation]]:
        """Count one committed evaluation; collect its discrepancies and
        its oracle-relation violations.

        Deduped outcomes (a relation's base served from the native
        request) carry rebound copies of already-counted runs, so only
        non-deduped outcomes contribute to the accounting.
        """
        found: List[_Found] = []
        oracle_outcomes: List[SweepOutcome] = []
        for outcome in outcomes:
            if not outcome.deduped:
                self.pair_runs += outcome.pair_runs
                self.executions += outcome.nvcc_executions
                self.cache_hits += outcome.nvcc_cache_hits
            arm = outcome.tag[0]
            if arm == "oracle":
                oracle_outcomes.append(outcome)
                continue
            o0 = outcome.pairs.get("O0")
            for pair in outcome.pairs.values():
                found.extend(_Found(arm, d, o0) for d in pair.discrepancies)
        # The chunk's first outcome is the native sweep, whose test_id is
        # the evaluated program's own id — violations normalize to it.
        canonical = outcomes[0].test_id if outcomes else None
        violations = check_relation_outcomes(
            oracle_outcomes, self.relations, self.config.fptype,
            self.config.oracle_ulp_bound, canonical,
        )
        return found, violations

    def oracle_entries(
        self, violations: Sequence[RelationViolation]
    ) -> List[Tuple[str, Discrepancy, DiscrepancySignature]]:
        """Condense relation violations to signature entries.

        The signature reuses the discrepancy slots under documented
        reinterpretation: cause is ``oracle:<relation>``, the implicated
        platform rides in the functions slot, and the outcome pair is
        (base, variant) instead of (nvcc, hipcc).  First-of-each-key
        dedup matches :meth:`signatures_for`.
        """
        out: List[Tuple[str, Discrepancy, DiscrepancySignature]] = []
        local_seen: Set[str] = set()
        for v in violations:
            dclass = classify_pair(float(v.base_printed), float(v.variant_printed))
            if dclass is None:
                continue  # sign-only difference: not a reportable violation
            sig = DiscrepancySignature(
                cause=Cause.ORACLE_PREFIX + v.relation,
                functions=(v.platform,),
                opt_label=v.opt_label,
                nvcc_outcome=v.base_outcome,
                hipcc_outcome=v.variant_outcome,
                fptype=self.config.fptype.value,
            )
            if sig.key in local_seen:
                continue
            local_seen.add(sig.key)
            d = Discrepancy(
                test_id=v.test_id,
                input_index=v.input_index,
                opt_label=v.opt_label,
                dclass=dclass,
                lhs_printed=v.base_printed,
                rhs_printed=v.variant_printed,
                lhs_outcome=OutcomeClass.from_string(v.base_outcome),
                rhs_outcome=OutcomeClass.from_string(v.variant_outcome),
            )
            out.append(("oracle", d, sig))
        return out

    def signatures_for(
        self, test: TestCase, found: Sequence[_Found]
    ) -> List[Tuple[str, Discrepancy, DiscrepancySignature]]:
        """Triage every discrepancy; keep the first of each signature.

        Triage is per-(opt, input) — two inputs diverging with the same
        outcome pair can implicate different functions or even different
        causes — so dedup happens *after* attribution, on the signature
        itself, never by collapsing discrepancies up front.  With a pool
        backend each arm's triage group fans out to a worker; verdicts
        come back in order, so the dedup is unchanged.
        """
        out: List[Tuple[str, Discrepancy, DiscrepancySignature]] = []
        local_seen: Set[str] = set()
        for (arm, d, _), verdict in zip(found, self._verdicts(test, found)):
            sig = DiscrepancySignature.from_verdict(verdict, d, test.fptype)
            if sig.key not in local_seen:
                local_seen.add(sig.key)
                out.append((arm, d, sig))
        return out

    def _verdicts(
        self, test: TestCase, found: Sequence[_Found]
    ) -> List[TriageVerdict]:
        """One triage batch per arm (the arm's discrepancies share their
        probes); verdicts in ``found`` order, which lists each arm's
        discrepancies together."""
        payloads = []
        for arm, group in itertools.groupby(found, key=lambda f: f.arm):
            entries = list(group)
            payloads.append(
                (
                    test.hipified() if arm == "hipify" else test,
                    self.pair_for_arm(arm),
                    tuple(
                        (f.discrepancy.opt_label, f.discrepancy.input_index)
                        for f in entries
                    ),
                    entries[0].o0,
                )
            )
        if self.service.backend.remote and len(payloads) > 1:
            batches = self.service.map(_triage_verdict_task, payloads)
        else:
            batches = [_triage_verdict_task(payload) for payload in payloads]
        return [verdict for batch in batches for verdict in batch]


class _LazyCorpus:
    """The seed corpus plus on-demand extension to any absolute index.

    Corpus indices are the ledger's program identity: indices below
    ``n_seed_programs`` are the seed pool, larger ones are programs the
    explore arm generated mid-session.  Either kind regenerates
    deterministically from ``(generator config, corpus seed, index)``, so
    a resumed session rebuilds explored pool entries without replaying
    their executions.
    """

    def __init__(self, config: FuzzConfig) -> None:
        self._gen_cfg = config.generator_config()
        self._root_seed = config.corpus_seed
        base = build_corpus(
            self._gen_cfg, config.n_seed_programs, self._root_seed, prefix="fuzzseed"
        )
        self._tests: Dict[int, TestCase] = dict(enumerate(base.tests))
        self.n_seed_programs = config.n_seed_programs

    def get(self, index: int) -> TestCase:
        test = self._tests.get(index)
        if test is None:
            test = build_corpus_slice(
                self._gen_cfg, index, index + 1, self._root_seed, prefix="fuzzseed"
            ).tests[0]
            self._tests[index] = test
        return test

    def seed_tests(self) -> List[TestCase]:
        return [self._tests[i] for i in range(self.n_seed_programs)]


def _replay_lineage(
    corpus: _LazyCorpus, corpus_index: int, lineage: Sequence[LineageStep]
) -> Kernel:
    """Rebuild a mutant kernel from its ledger lineage."""
    kernel = corpus.get(corpus_index).program.kernel
    for step in lineage:
        donor = (
            corpus.get(step.donor_index).program.kernel
            if step.donor_index is not None
            else None
        )
        mutated = apply_mutation(kernel, step.mutation, step.seed, donor)
        if mutated is None:
            raise HarnessError(
                f"ledger lineage does not replay: {step.mutation} produced no mutant"
            )
        kernel = mutated
    return kernel


# The speculated-iteration record (``_Prep``) lives in
# :mod:`repro.fuzz.search` as ``PreparedIteration`` — both strategies
# produce it, and the engine's window loop consumes it identically.


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


def _service_for(config: "FuzzConfig") -> ExecutionService:
    """The configured execution service: worker-count rule or named backend."""
    if config.backend is None:
        return ExecutionService.for_workers(config.workers)
    return ExecutionService(
        backend=resolve_backend(config.backend, config.workers, config.bridge_url)
    )


def run_fuzz(
    config: Optional[FuzzConfig] = None,
    *,
    ledger: Optional[Union[str, Path]] = None,
    resume: Union[bool, str] = False,
    progress=None,
) -> FuzzResult:
    """Run one fuzzing session; returns the findings and the accounting.

    ``ledger`` names the JSONL findings file; ``resume=True`` reloads a
    matching ledger (config fingerprint must agree) and continues the
    iteration stream where it stopped; ``resume="auto"`` falls back to a
    fresh session when the ledger is missing or mismatched.  ``progress``
    is an optional ``(phase, done, total)`` callable.
    """
    config = config or FuzzConfig()
    if resume and ledger is None:
        raise HarnessError("resume requires a ledger path")
    t0 = time.perf_counter()

    service = _service_for(config)
    corpus = _LazyCorpus(config)
    evaluator = _Evaluator(config, service)

    book: Optional[FindingsLedger] = None
    state = LedgerState()
    resuming = bool(resume)
    if ledger is not None:
        book = FindingsLedger(ledger)
        if resume:
            try:
                state = book.load(config.fingerprint())
            except HarnessError:
                if resume != "auto":
                    raise
                state = LedgerState()
                resuming = False
        book.open_for_append(config.fingerprint(), fresh=not resuming)

    pool: List[_PoolEntry] = []
    by_key: Dict[Tuple[int, Tuple[LineageStep, ...]], _PoolEntry] = {}
    for index, test in enumerate(corpus.seed_tests()):
        entry = _PoolEntry(
            test=test,
            corpus_index=index,
            lineage=(),
            content=content_text(test.program.kernel, test.inputs),
        )
        pool.append(entry)
        by_key[entry.key] = entry

    seen: Set[str] = set()
    findings: List[Finding] = list(state.findings)
    baseline_signatures: List[DiscrepancySignature]
    hot_indices: List[int]
    baseline_pair_runs: int

    try:
        # -------------------------------------------------------- baseline
        if resuming and state.has_baseline:
            baseline_signatures = state.baseline_signatures
            hot_indices = state.hot_corpus_indices
            baseline_pair_runs = state.baseline_runs
        else:
            baseline_signatures = []
            hot_indices = []
            runs0 = evaluator.pair_runs
            tracer = get_tracer()
            base_t0 = time.perf_counter_ns() if tracer.enabled else 0
            seeds = corpus.seed_tests()
            baseline_chunks = (evaluator.chunk_for(t) for t in seeds)
            for index, outcomes in enumerate(service.run_sweeps(baseline_chunks)):
                found, violations = evaluator.absorb(outcomes)
                if found or violations:
                    hot_indices.append(index)
                entries = evaluator.signatures_for(
                    seeds[index], found
                ) + evaluator.oracle_entries(violations)
                for _, _, sig in entries:
                    if sig.key not in {s.key for s in baseline_signatures}:
                        baseline_signatures.append(sig)
                if progress is not None:
                    progress("baseline", index + 1, config.n_seed_programs)
            baseline_pair_runs = evaluator.pair_runs - runs0
            if tracer.enabled:
                tracer.record(
                    "fuzz.baseline",
                    base_t0,
                    time.perf_counter_ns(),
                    seeds=len(seeds),
                    signatures=len(baseline_signatures),
                )
            if book is not None:
                book.append_baseline(
                    baseline_pair_runs, baseline_signatures, hot_indices
                )

        seen.update(s.key for s in baseline_signatures)
        for index in hot_indices:
            pool[index].energy += config.novelty_bonus

        scheduler = _Scheduler(config)
        # The mcts strategy owns its own state (the tree + the coverage
        # map); the bandit state (scheduler wins, pool energies) keeps
        # running but is never consulted when search is active.
        search: Optional[MctsSearch] = None
        if config.search == "mcts":
            search = MctsSearch(config, corpus, hot_indices)

        # --------------------------------------- replay prior pool events
        evaluated: Set[str] = set()

        def add_pool_entry(
            corpus_index: int, lineage: Tuple[LineageStep, ...], energy: float
        ) -> None:
            base = corpus.get(corpus_index)
            if lineage:
                kernel = _replay_lineage(corpus, corpus_index, lineage)
                content = content_text(kernel, base.inputs)
                program = Program(
                    program_id=_mutant_content_id(config.fptype, content),
                    kernel=kernel,
                    seed=lineage[-1].seed,
                    source_note="fuzz mutant",
                )
                test = TestCase(program, base.inputs)
            else:
                test = base  # an explore-arm program: the corpus test itself
                content = content_text(test.program.kernel, test.inputs)
            entry = _PoolEntry(
                test=test,
                corpus_index=corpus_index,
                lineage=lineage,
                content=content,
                energy=energy,
            )
            pool.append(entry)
            by_key[entry.key] = entry
            evaluated.add(_mutant_content_id(config.fptype, content))

        promoted_energy = config.promotion_energy
        if search is not None:
            # Re-run each completed iteration's *selection* against the
            # growing tree (cheap: mutation application only, never
            # execution) and fold in the ledger-recorded rewards.  This
            # rebuilds the tree statistics, the coverage map, and —
            # stricter than the bandit's pool-only reconstruction — the
            # full evaluated-content dedup set, so the continuation is
            # byte-identical to an uninterrupted session.
            for f in state.findings:
                seen.add(f.signature.key)
            trace_by_iter = {t.iteration: t for t in state.search_steps}
            for i in range(state.iterations_completed):
                p = search.prepare(i, evaluated, set())
                rec = trace_by_iter.get(i)
                if p.skip is not None:
                    if rec is not None:
                        raise HarnessError(
                            "ledger search trace does not replay: iteration "
                            f"{i} re-prepared as a {p.skip} skip"
                        )
                    search.commit_skip(p)
                    continue
                if (
                    rec is None
                    or rec.corpus_index != p.corpus_index
                    or rec.lineage != p.lineage
                ):
                    raise HarnessError(
                        f"ledger search trace does not replay at iteration {i}"
                    )
                evaluated.add(p.content_id)
                search.commit_replay(p, rec.reward, rec.diverged)
        else:
            # Re-simulate the completed iterations' *selections* (cheap: no
            # compilation, no execution) while applying the ledger's findings
            # and promotions at the iterations they occurred — this
            # reconstructs the scheduler's counters and the pool's evolution
            # exactly.
            events_by_iter: Dict[int, List[Tuple[str, object]]] = {}
            for kind, event in state.pool_events:
                events_by_iter.setdefault(event.iteration, []).append((kind, event))  # type: ignore[union-attr]
            for i in range(state.iterations_completed):
                rng = random.Random(derive_seed(config.seed, "select", i))
                scheduler.pick(rng)
                for kind, event in events_by_iter.get(i, ()):
                    if kind == "finding":
                        f = event  # type: Finding
                        seen.add(f.signature.key)
                        scheduler.record_win(
                            f.lineage[-1].mutation if f.lineage else "explore"
                        )
                        if f.lineage:
                            parent = by_key.get((f.corpus_index, f.lineage[:-1]))
                            if parent is not None:
                                parent.energy += config.novelty_bonus
                        if (f.corpus_index, f.lineage) not in by_key:
                            add_pool_entry(
                                f.corpus_index, f.lineage, 1.0 + config.novelty_bonus
                            )
                    else:
                        p = event  # type: Promotion
                        if (p.corpus_index, p.lineage) not in by_key:
                            add_pool_entry(p.corpus_index, p.lineage, promoted_energy)

        result = FuzzResult(
            config=config,
            findings=findings,
            baseline_signatures=baseline_signatures,
            hot_seed_indices=hot_indices,
            iterations=state.iterations_completed,
            resumed_iterations=state.iterations_completed,
            baseline_pair_runs=baseline_pair_runs,
        )

        # ---------------------------------------------------- the loop
        runs0 = evaluator.pair_runs
        batch_findings: List[Finding] = []
        batch_promotions: List[Promotion] = []
        batch_search: List[SearchTrace] = []
        batch_start = state.iterations_completed
        batches_written = state.batches_completed
        stopped_by = "budget"
        loop_tracer = get_tracer()
        batch_t0 = time.perf_counter_ns() if loop_tracer.enabled else 0

        def flush_batch(stop: int) -> None:
            nonlocal batch_start, batches_written, batch_findings, batch_promotions
            nonlocal batch_search, batch_t0
            if book is not None and stop > batch_start:
                book.append_batch(
                    batches_written,
                    batch_start,
                    stop,
                    batch_findings,
                    batch_promotions,
                    search=batch_search if search is not None else None,
                )
                batches_written += 1
            if loop_tracer.enabled and stop > batch_start:
                now = time.perf_counter_ns()
                loop_tracer.record(
                    "fuzz.batch",
                    batch_t0,
                    now,
                    start=batch_start,
                    stop=stop,
                    findings=len(batch_findings),
                )
                result.batch_walls.append(
                    (batch_start, stop, (now - batch_t0) / 1e9)
                )
                batch_t0 = now
            batch_start = stop
            batch_findings = []
            batch_promotions = []
            batch_search = []

        def prepare_iteration(i: int, overlay: Set[str]) -> _Prep:
            """Select and mutate against the *current* state, committing
            nothing: scheduler counters, result counters, and the dedup
            set are untouched (``overlay`` carries the window's own
            content ids so speculated iterations dedup against each
            other the way committed ones would).  The mcts strategy's
            prepare additionally applies its prepare-time tree marks,
            every one recorded in an undo delta (see
            :mod:`repro.fuzz.search`)."""
            if search is not None:
                return search.prepare(i, evaluated, overlay)
            rng = random.Random(derive_seed(config.seed, "select", i))
            arm_choice = scheduler.select(rng)

            if arm_choice == "explore":
                # A fresh generated program; its index extends the corpus,
                # so any finding's (corpus_index, lineage=()) replays.
                corpus_index = config.n_seed_programs + i
                test = corpus.get(corpus_index)
                content = content_text(test.program.kernel, test.inputs)
                cid = _mutant_content_id(config.fptype, content)
                overlay.add(cid)
                return _Prep(
                    iteration=i,
                    arm=arm_choice,
                    kind="explore",
                    test=test,
                    content=content,
                    content_id=cid,
                    corpus_index=corpus_index,
                    lineage=(),
                )

            parent = rng.choices(pool, weights=[e.energy for e in pool], k=1)[0]
            donor_index: Optional[int] = None
            donor: Optional[Kernel] = None
            if MUTATORS[arm_choice].needs_donor:
                # Donors come from corpus-backed entries (so the lineage
                # stays a flat recipe) but are drawn energy-weighted:
                # divergence-prone subexpressions travel first.
                candidates = [e for e in pool if not e.lineage]
                donor_entry = rng.choices(
                    candidates, weights=[e.energy for e in candidates], k=1
                )[0]
                donor_index = donor_entry.corpus_index
                donor = donor_entry.test.program.kernel
            mseed = derive_seed(config.seed, "mutant", i)
            kernel = apply_mutation(
                parent.test.program.kernel, arm_choice, mseed, donor
            )
            if kernel is None:
                return _Prep(iteration=i, arm=arm_choice, skip="no_site")
            if validate_kernel(kernel):
                return _Prep(iteration=i, arm=arm_choice, skip="invalid")
            content = content_text(kernel, parent.test.inputs)
            if content == parent.content:
                return _Prep(iteration=i, arm=arm_choice, skip="noop")
            cid = _mutant_content_id(config.fptype, content)
            if cid in evaluated or cid in overlay:
                return _Prep(iteration=i, arm=arm_choice, skip="duplicate")
            overlay.add(cid)
            program = Program(
                program_id=cid,
                kernel=kernel,
                seed=mseed,
                source_note="fuzz mutant",
            )
            return _Prep(
                iteration=i,
                arm=arm_choice,
                kind="mutant",
                test=TestCase(program, parent.test.inputs),
                content=content,
                content_id=cid,
                corpus_index=parent.corpus_index,
                lineage=parent.lineage + (LineageStep(arm_choice, mseed, donor_index),),
                parent=parent,
            )

        def build_finding(
            p: _Prep, platform_arm: str, d: Discrepancy, sig: DiscrepancySignature
        ) -> Finding:
            """Minimize and record one novel signature's finding (shared
            by both strategies)."""
            target = p.test.hipified() if platform_arm == "hipify" else p.test
            reduced_size: Optional[int] = None
            reduced_cuda: Optional[str] = None
            # Oracle findings are single-stack relation verdicts, not
            # cross-vendor discrepancies; the differential delta
            # debugger cannot reproduce them, so they stay unminimized.
            if config.minimize and platform_arm != "oracle":
                try:
                    reduction = reduce_testcase(
                        target,
                        OptSetting.from_label(d.opt_label),
                        d.input_index,
                        runner=evaluator.runner_for(platform_arm),
                    )
                    reduced_size = reduction.reduced_size
                    reduced_cuda = render_cuda(reduction.reduced.program)
                except (ValueError, ReproError):
                    pass  # finding stays unminimized; still novel
            return Finding(
                iteration=p.iteration,
                arm=platform_arm,
                mutant_id=p.test.test_id,
                corpus_index=p.corpus_index,
                lineage=p.lineage,
                signature=sig,
                discrepancy=d,
                original_size=kernel_size(p.test.program.kernel),
                reduced_size=reduced_size,
                reduced_cuda=reduced_cuda,
            )

        def commit_mcts(
            p: _Prep,
            found: List[_Found],
            violations: List[RelationViolation],
        ) -> bool:
            """The mcts commit: counters and findings exactly as the
            bandit's, then reward backprop instead of pool/scheduler
            feedback.  True only for a nonzero reward — a zero-reward
            commit adds nothing tree selection reads, so the speculative
            window survives it (the engine's parallelism improves as the
            coverage map saturates)."""
            assert search is not None
            if p.skip is not None:
                if p.skip == "no_site":
                    result.mutants_no_site += 1
                elif p.skip == "invalid":
                    result.mutants_invalid += 1
                elif p.skip == "noop":
                    result.mutants_noop += 1
                else:
                    result.duplicates += 1
                search.commit_skip(p)
                return False
            evaluated.add(p.content_id)
            if p.kind == "explore":
                result.fresh_explored += 1
            else:
                result.mutants_run += 1
            result.raw_discrepancies += len(found)
            result.oracle_violations += len(violations)
            novel = 0
            if found or violations:
                entries = evaluator.signatures_for(
                    p.test, found
                ) + evaluator.oracle_entries(violations)
                for platform_arm, d, sig in entries:
                    if sig.key in seen:
                        continue
                    seen.add(sig.key)
                    novel += 1
                    finding = build_finding(p, platform_arm, d, sig)
                    findings.append(finding)
                    batch_findings.append(finding)
            diverged = bool(found)
            reward = search.commit_evaluated(
                p, novel, len(violations), diverged=diverged
            )
            batch_search.append(
                SearchTrace(p.iteration, p.corpus_index, p.lineage, reward, diverged)
            )
            # A promotion (diverged) grows the tree even at zero reward,
            # so speculation is stale either way.
            return reward != 0.0 or diverged

        def commit_iteration(
            p: _Prep,
            found: List[_Found],
            violations: List[RelationViolation],
        ) -> bool:
            """Apply one iteration's results in order; True when it
            changed state a later speculated selection reads (which
            invalidates anything speculated after it)."""
            if search is not None:
                return commit_mcts(p, found, violations)
            scheduler.count_attempt(p.arm)
            if p.skip is not None:
                if p.skip == "no_site":
                    result.mutants_no_site += 1
                elif p.skip == "invalid":
                    result.mutants_invalid += 1
                elif p.skip == "noop":
                    result.mutants_noop += 1
                else:
                    result.duplicates += 1
                return False
            evaluated.add(p.content_id)
            if p.kind == "explore":
                result.fresh_explored += 1
            else:
                result.mutants_run += 1

            result.raw_discrepancies += len(found)
            result.oracle_violations += len(violations)
            if not found and not violations:
                return False

            promoted = False
            new_entry = _PoolEntry(
                test=p.test,
                corpus_index=p.corpus_index,
                lineage=p.lineage,
                content=p.content,
            )
            entries = evaluator.signatures_for(
                p.test, found
            ) + evaluator.oracle_entries(violations)
            for platform_arm, d, sig in entries:
                if sig.key in seen:
                    continue
                seen.add(sig.key)
                finding = build_finding(p, platform_arm, d, sig)
                findings.append(finding)
                batch_findings.append(finding)
                if p.parent is not None:
                    p.parent.energy += config.novelty_bonus
                scheduler.record_win(p.arm)
                if not promoted:
                    promoted = True
                    new_entry.energy = 1.0 + config.novelty_bonus
                    pool.append(new_entry)
                    by_key[new_entry.key] = new_entry

            if not promoted:
                # Discrepant but nothing novel: still an interesting input.
                # It joins the pool (AFL's queue) — chains of mutations walk
                # the signature space further than one hop can — and the
                # promotion is ledgered so a resume rebuilds the same pool.
                promotion = Promotion(p.iteration, p.corpus_index, p.lineage)
                batch_promotions.append(promotion)
                new_entry.energy = promoted_energy
                pool.append(new_entry)
                by_key[new_entry.key] = new_entry
            return True

        # Speculation window: how many candidate evaluations are in
        # flight at once.  1 (serial) trivially matches the reference
        # trajectory; larger windows commit the same trajectory because
        # invalidated speculation is discarded uncounted.
        window = min(config.workers, 16) if config.workers > 1 else 1

        try:
            i = state.iterations_completed
            while i < config.max_mutants:
                if (
                    config.max_seconds is not None
                    and time.perf_counter() - t0 > config.max_seconds
                ):
                    stopped_by = "wall-clock"
                    break
                preps: List[_Prep] = []
                overlay: Set[str] = set()
                n_eval = 0
                j = i
                while j < config.max_mutants and n_eval < window:
                    p = prepare_iteration(j, overlay)
                    preps.append(p)
                    if p.test is not None:
                        n_eval += 1
                    j += 1
                outcome_iter = iter(())  # type: ignore[assignment]
                if n_eval:
                    outcome_iter = service.run_sweeps(
                        [
                            evaluator.chunk_for(p.test)
                            for p in preps
                            if p.test is not None
                        ]
                    )
                for p in preps:
                    found: List[_Found] = []
                    violations: List[RelationViolation] = []
                    if p.test is not None:
                        span_mcts = search is not None and loop_tracer.enabled
                        eval_t0 = time.perf_counter_ns() if span_mcts else 0
                        found, violations = evaluator.absorb(next(outcome_iter))
                        if span_mcts:
                            loop_tracer.record(
                                "fuzz.mcts.evaluate",
                                eval_t0,
                                time.perf_counter_ns(),
                                iteration=p.iteration,
                            )
                    changed = commit_iteration(p, found, violations)
                    i = p.iteration + 1
                    result.iterations = i
                    # The flush check runs every iteration — including ones
                    # that produced nothing — so batch_size bounds the work
                    # a hard kill can lose even through a dry stretch.
                    if (i - batch_start) >= config.batch_size:
                        flush_batch(i)
                        if progress is not None:
                            progress("fuzz", i, config.max_mutants)
                    if changed:
                        # The pool (or tree) changed: every later
                        # speculation selected against stale state.  Drain
                        # and discard (their runs are never counted), undo
                        # the tree's speculative prepare-marks, then
                        # re-speculate.
                        for _ in outcome_iter:
                            pass
                        if search is not None:
                            search.invalidate()
                        break
            flush_batch(result.iterations)
            if progress is not None and result.iterations:
                progress("fuzz", result.iterations, config.max_mutants)
        finally:
            if book is not None:
                book.close()

        result.pair_runs = evaluator.pair_runs - runs0
        result.nvcc_executions = evaluator.executions
        result.nvcc_cache_hits = evaluator.cache_hits
        result.elapsed_seconds = time.perf_counter() - t0
        result.stopped_by = stopped_by
        result.exec_metrics = service.stats()
        if search is not None:
            result.search_stats = search.stats()
            result.coverage = search.coverage.as_dict()
        return result
    finally:
        service.close()


def run_random_session(
    config: Optional[FuzzConfig] = None,
    n_programs: int = 0,
    *,
    skip_signatures: Optional[Set[str]] = None,
    progress=None,
) -> RandomSessionResult:
    """Blind Varity generation at a comparable run budget (the control arm).

    Generates ``n_programs`` *fresh* programs — from a control seed
    stream disjoint from both the fuzz seed pool and the explore arm's
    programs, but drawn from the same generator distribution — and
    evaluates them with the same sweep machinery.  ``skip_signatures``
    (typically the fuzz session's baseline keys) defines novelty the same
    way the fuzzer's seen-set does, making the two arms' novel-signature
    yields directly comparable at equal ``pair_runs``.
    """
    config = config or FuzzConfig()
    skip = set(skip_signatures or ())
    # The control arm honors config.workers too: its chunks stream with
    # no feedback loop, so parallelism never changes the result — only
    # the wall clock, keeping the fuzz-vs-blind timing comparison fair.
    service = _service_for(config)
    evaluator = _Evaluator(config, service)
    corpus = build_corpus(
        config.generator_config(),
        n_programs,
        derive_seed(config.corpus_seed, "random-control"),
        prefix="fuzzctl",
    )
    result = RandomSessionResult(n_programs=n_programs)
    seen: Set[str] = set(skip)
    try:
        chunks = (evaluator.chunk_for(t) for t in corpus)
        for index, outcomes in enumerate(service.run_sweeps(chunks)):
            found, violations = evaluator.absorb(outcomes)
            result.raw_discrepancies += len(found)
            result.oracle_violations += len(violations)
            entries = evaluator.signatures_for(
                corpus.tests[index], found
            ) + evaluator.oracle_entries(violations)
            for _, _, sig in entries:
                if sig.key not in seen:
                    seen.add(sig.key)
                    result.novel_signatures.append(sig)
            if progress is not None:
                progress("random", index + 1, n_programs)
    finally:
        service.close()
    result.pair_runs = evaluator.pair_runs
    return result
