"""Automated root-cause triage of discrepancies.

The paper's stated future work (§VII): "develop automated debugging tools
to efficiently identify and resolve these inconsistencies, minimizing
manual analysis."  This module implements that tool for the modeled
stacks.  A discrepancy's cause comes from up to three probes:

1. **Optimization probe** — rerun at ``-O0``: if the platforms agree
   there, the divergence is optimization-induced; the differing pass lists
   name the transformation (the in-model analogue of diffing SASS).
2. **Library probe** — rerun with the math libraries equalized
   (:func:`repro.analysis.ablation.build_ablated_runner`): if the
   divergence disappears, it is a math-library difference, and the first
   divergent traced statement names the function(s) involved.
3. **FTZ probe** (FP32 fast-math only) — rerun with the flush modes
   equalized: attributes the flush-point asymmetry.

Anything that survives all probes is reported ``unknown`` with the full
isolation report attached — the case a human (or a vendor) should look at.

Probe plan.  The discrepancies of one test on one stack pair share their
probes (:func:`probe_discrepancies`).  The O0 probe is read off the
evaluation's own O0 :class:`PairResult` (an input disagrees at O0 exactly
when that pair has a discrepancy at it), or comes from one O0 sweep when
the caller has none.  Each ablation probe is one batched
:meth:`DifferentialRunner.run_sweep` on its equalized runner, built once
per process, over only the opt settings and inputs that need it.  A row
a batch reports as trapped is re-run through the scalar
:meth:`DifferentialRunner.run_single`, which raises the trap.
:func:`triage_discrepancy` is the per-discrepancy entry point: it reads
its cause from the shared probes (computing them for a batch of one
when given none) and runs that discrepancy's traced isolation.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ablation import AblationSpec, build_ablated_runner
from repro.analysis.case_studies import CaseStudyReport, isolate_divergence
from repro.compilers.options import OptLevel, OptSetting
from repro.fp.classify import outcomes_equivalent
from repro.fp.types import FPType
from repro.harness.differential import Discrepancy
from repro.harness.runner import DifferentialRunner, PairResult
from repro.ir.nodes import Call
from repro.ir.visitor import collect
from repro.utils.tables import Table
from repro.varity.testcase import TestCase

__all__ = [
    "Cause",
    "TriageProbes",
    "TriageVerdict",
    "probe_discrepancies",
    "triage_batch",
    "triage_discrepancy",
    "triage_tests",
    "triage_table",
]

#: Cause labels, from most to least specific.
class Cause:
    MATH_LIBRARY = "math-library"
    OPTIMIZATION = "optimization-induced"
    FTZ = "ftz-asymmetry"
    FAST_MATH_LIBRARY = "fast-math approximation"
    UNKNOWN = "unknown"
    #: Namespace of single-stack metamorphic-oracle causes: a fuzz
    #: session running with oracle relations signs relation violations
    #: as ``oracle:<relation-name>`` — not a triage probe result but a
    #: relation checker's verdict (the platform rides in the signature's
    #: functions slot).  These causes entered the ledger vocabulary with
    #: fingerprint format 3.
    ORACLE_PREFIX = "oracle:"


@dataclass
class TriageVerdict:
    """Attribution for one discrepancy."""

    test_id: str
    input_index: int
    opt_label: str
    cause: str
    functions: Tuple[str, ...] = ()
    nvcc_passes: Tuple[str, ...] = ()
    hipcc_passes: Tuple[str, ...] = ()
    isolation: Optional[CaseStudyReport] = None

    def describe(self) -> str:
        detail = ""
        if self.functions:
            detail = f" via {', '.join(self.functions)}"
        elif self.cause == Cause.OPTIMIZATION:
            extra = set(self.nvcc_passes) ^ set(self.hipcc_passes)
            if extra:
                detail = f" (asymmetric passes: {', '.join(sorted(extra))})"
        return (
            f"{self.test_id}#{self.input_index}@{self.opt_label}: "
            f"{self.cause}{detail}"
        )


def _functions_near_divergence(test: TestCase, report: CaseStudyReport) -> Tuple[str, ...]:
    """Math functions appearing in the statement that first diverged."""
    if report.divergence is None:
        return ()
    # Statement paths look like "s3.f[i=2].s1": the leading segment indexes
    # the top-level statement; walk it and gather Call names.
    path = report.divergence.path
    head = path.split(".")[0]
    if not head.startswith("s"):
        return ()
    try:
        index = int(head[1:])
    except ValueError:
        return ()
    body = test.program.kernel.body
    if index >= len(body):
        return ()
    calls = collect(body[index], lambda n: isinstance(n, Call))
    return tuple(sorted({c.func for c in calls}))  # type: ignore[union-attr]


#: The two ablation probes: one asymmetry equalized each.
_PROBE_SPECS: Dict[str, AblationSpec] = {
    "mathlib": AblationSpec("mathlib", "", same_mathlib=True),
    "ftz": AblationSpec("ftz", "", same_ftz=True),
}

_O0 = OptSetting(OptLevel.O0)

#: (opt setting, input index) of one discrepancy of a test.
Target = Tuple[OptSetting, int]


@functools.lru_cache(maxsize=None)
def _probe_runner(probe: str) -> DifferentialRunner:
    """The probe's equalized runner, built once per process."""
    return build_ablated_runner(_PROBE_SPECS[probe])


@dataclass
class TriageProbes:
    """Probe outcomes shared by the discrepancies of one test on one pair.

    ``agree[(probe, opt_label, input_index)]`` is True when the two sides
    were equivalent under the probe: ``"O0"`` (the pair's own runner at
    O0, keyed under opt label ``"O0"``), ``"mathlib"`` or ``"ftz"``.
    """

    agree: Dict[Tuple[str, str, int], bool] = field(default_factory=dict)

    def o0_agrees(self, opt: OptSetting, input_index: int) -> bool:
        return opt.label != _O0.label and self.agree[("O0", _O0.label, input_index)]


def _fast_math_fp32(test: TestCase, opt: OptSetting) -> bool:
    return opt.fast_math and test.fptype is FPType.FP32


def _probe(
    probes: TriageProbes,
    probe: str,
    runner: DifferentialRunner,
    test: TestCase,
    targets: Sequence[Target],
    pairs: Optional[Dict[str, PairResult]] = None,
) -> None:
    """Record whether each target's two sides agree under ``probe``.

    ``pairs`` is a sweep of ``test`` (all inputs) that already ran;
    without it, ``runner`` sweeps just the targets' opt settings and
    inputs, batched.  A row the sweep skipped (one side trapped) is
    re-run through the scalar probe, which raises the trap.
    """
    if not targets:
        return
    rows = list(range(len(test.inputs)))
    if pairs is None:
        rows = sorted({index for _, index in targets})
        opts = list({opt.label: opt for opt, _ in targets}.values())
        subset = TestCase(test.program, [test.inputs[i] for i in rows])
        pairs = runner.run_sweep(subset, opts)
    for opt, index in targets:
        pair = pairs[opt.label]
        row = rows.index(index)
        if row in pair.skipped_inputs:
            lhs, rhs, _, _ = runner.run_single(test, opt, index)
            agree = outcomes_equivalent(lhs.value, rhs.value)
        else:
            agree = all(d.input_index != row for d in pair.discrepancies)
        probes.agree[(probe, opt.label, index)] = agree


def probe_discrepancies(
    runner: DifferentialRunner,
    test: TestCase,
    targets: Sequence[Target],
    o0: Optional[PairResult] = None,
) -> TriageProbes:
    """Run every probe the ``targets`` (discrepancies of ``test`` on
    ``runner``'s pair) need, batched.

    ``o0`` is the pair's own O0 result for ``test`` when the caller's
    evaluation swept O0; otherwise one O0 sweep is run here.  Each target
    gets exactly the probes its cause needs: the library probe unless O0
    agrees, and (FP32 fast math only) the FTZ probe when O0 agrees or the
    library probe does not.
    """
    probes = TriageProbes()
    o0_inputs = sorted({i for opt, i in targets if opt.label != _O0.label})
    _probe(
        probes, "O0", runner, test, [(_O0, i) for i in o0_inputs],
        None if o0 is None else {_O0.label: o0},
    )
    _probe(
        probes, "mathlib", _probe_runner("mathlib"), test,
        [(opt, i) for opt, i in targets if not probes.o0_agrees(opt, i)],
    )
    _probe(
        probes, "ftz", _probe_runner("ftz"), test,
        [
            (opt, i)
            for opt, i in targets
            if _fast_math_fp32(test, opt)
            and (
                probes.o0_agrees(opt, i)
                or not probes.agree[("mathlib", opt.label, i)]
            )
        ],
    )
    return probes


def triage_discrepancy(
    runner: DifferentialRunner,
    test: TestCase,
    opt: OptSetting,
    input_index: int,
    probes: Optional[TriageProbes] = None,
) -> TriageVerdict:
    """Attribute one discrepancy to a modeled mechanism.

    ``probes`` holds the shared probe outcomes of the discrepancy's
    (test, pair) batch (:func:`probe_discrepancies`); when omitted they
    are computed for this discrepancy alone.
    """
    report = isolate_divergence(runner, test, opt, input_index)
    verdict = TriageVerdict(
        test_id=test.test_id,
        input_index=input_index,
        opt_label=opt.label,
        cause=Cause.UNKNOWN,
        nvcc_passes=report.nvcc_passes,
        hipcc_passes=report.hipcc_passes,
        isolation=report,
    )
    if probes is None:
        probes = probe_discrepancies(runner, test, [(opt, input_index)])
    fast_math = _fast_math_fp32(test, opt)
    # Probe 1: does -O0 agree?  Then optimization introduced it — under
    # fast math on FP32, sharpened by the FTZ probe.
    if probes.o0_agrees(opt, input_index):
        ftz = fast_math and probes.agree[("ftz", opt.label, input_index)]
        verdict.cause = Cause.FTZ if ftz else Cause.OPTIMIZATION
    # Probe 2: identical math libraries.
    elif probes.agree[("mathlib", opt.label, input_index)]:
        verdict.cause = Cause.FAST_MATH_LIBRARY if fast_math else Cause.MATH_LIBRARY
        verdict.functions = _functions_near_divergence(test, report)
    # Probe 3 (FP32 fast math): flush-point asymmetry.
    elif fast_math and probes.agree[("ftz", opt.label, input_index)]:
        verdict.cause = Cause.FTZ
    return verdict


def triage_batch(
    runner: DifferentialRunner,
    test: TestCase,
    targets: Sequence[Target],
    o0: Optional[PairResult] = None,
) -> List[TriageVerdict]:
    """Triage the discrepancies of one test on one pair with shared probes."""
    probes = probe_discrepancies(runner, test, targets, o0)
    return [
        triage_discrepancy(runner, test, opt, index, probes)
        for opt, index in targets
    ]


def triage_tests(
    runner: DifferentialRunner,
    tests_by_id: Dict[str, TestCase],
    discrepancies: Sequence[Discrepancy],
    limit: Optional[int] = None,
) -> List[TriageVerdict]:
    """Triage a batch of campaign discrepancies (optionally capped).

    ``limit=0`` means "triage none" — only ``None`` means unlimited.
    Discrepancies of one test share one probe batch; verdicts keep the
    input order.
    """
    chosen = [
        d
        for d in discrepancies[: limit if limit is not None else len(discrepancies)]
        if d.test_id in tests_by_id
    ]
    targets: Dict[str, List[Target]] = {}
    for d in chosen:
        targets.setdefault(d.test_id, []).append(
            (OptSetting.from_label(d.opt_label), d.input_index)
        )
    probes = {
        test_id: probe_discrepancies(runner, tests_by_id[test_id], group)
        for test_id, group in targets.items()
    }
    return [
        triage_discrepancy(
            runner,
            tests_by_id[d.test_id],
            OptSetting.from_label(d.opt_label),
            d.input_index,
            probes[d.test_id],
        )
        for d in chosen
    ]


def triage_table(verdicts: Sequence[TriageVerdict], title: str = "") -> Table:
    """Cause histogram plus the functions most often implicated.

    Function counts are tallied *per cause*: a function implicated nine
    times under ``math-library`` and once under ``fast-math`` shows ×9 and
    ×1 on the respective rows, not a global ×10 on both.
    """
    causes = Counter(v.cause for v in verdicts)
    table = Table(
        title=title or "Automated root-cause triage",
        headers=["Cause", "Count", "Most implicated functions"],
    )
    for cause, count in causes.most_common():
        functions = Counter(
            f for v in verdicts if v.cause == cause for f in v.functions
        )
        implicated = ", ".join(
            f"{name}×{n}" for name, n in functions.most_common(3)
        )
        table.add_row([cause, count, implicated or "—"])
    return table
