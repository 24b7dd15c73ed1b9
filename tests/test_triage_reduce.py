"""Tests for the automated debugging tools (triage + reduction).

These implement the paper's §VII future work, so the tests pin down the
behaviour on the paper's own case studies: Fig. 4 must triage to
``math-library via fmod`` and reduce to a kernel that still contains the
divergent ``fmod``; Fig. 5 to ``ceil``; the engineered Case-Study-3 kernel
to ``optimization-induced`` with the contraction pass implicated.  The
batched probe path must give the verdicts of one scalar probe per
discrepancy (``_scalar_verdict``, the reference).
"""

from __future__ import annotations

import pytest

from repro.analysis.ablation import AblationSpec, build_ablated_runner
from repro.analysis.case_studies import isolate_divergence
from repro.analysis.reduce import kernel_size, reduce_testcase
from repro.analysis.triage import (
    Cause,
    _functions_near_divergence,
    probe_discrepancies,
    triage_batch,
    triage_discrepancy,
    triage_table,
    triage_tests,
)
from repro.apps.paper_kernels import (
    case3_engineered_testcase,
    fig4_testcase,
    fig5_testcase,
)
from repro.compilers.options import PAPER_OPT_SETTINGS, OptLevel, OptSetting
from repro.fp.classify import outcomes_equivalent
from repro.fp.types import FPType
from repro.harness.differential import classify_pair
from repro.harness.runner import DifferentialRunner
from repro.ir.nodes import Call
from repro.ir.visitor import collect

O0 = OptSetting(OptLevel.O0)
O1 = OptSetting(OptLevel.O1)
O3_FM = OptSetting(OptLevel.O3, fast_math=True)


class TestTriage:
    def test_fig4_attributed_to_fmod(self, runner):
        v = triage_discrepancy(runner, fig4_testcase(), O0, 0)
        assert v.cause == Cause.MATH_LIBRARY
        assert "fmod" in v.functions

    def test_fig5_attributed_to_ceil(self, runner):
        v = triage_discrepancy(runner, fig5_testcase(), O0, 0)
        assert v.cause == Cause.MATH_LIBRARY
        assert "ceil" in v.functions

    def test_case3_attributed_to_optimization(self, runner):
        v = triage_discrepancy(runner, case3_engineered_testcase(), O1, 0)
        assert v.cause == Cause.OPTIMIZATION
        assert "fma-contract" in set(v.nvcc_passes) ^ set(v.hipcc_passes)

    def test_describe_is_informative(self, runner):
        v = triage_discrepancy(runner, fig4_testcase(), O0, 0)
        text = v.describe()
        assert "math-library" in text and "fmod" in text

    def test_triage_batch_over_campaign(self, runner):
        """Campaign discrepancies triage without error and mostly resolve."""
        from repro.harness.campaign import CampaignConfig, run_campaign
        from repro.varity.corpus import build_corpus

        config = CampaignConfig(
            seed=31, n_programs_fp64=60, inputs_per_program=3,
            include_hipify=False, include_fp32=False,
        )
        result = run_campaign(config)
        arm = result.arms["fp64"]
        if not arm.discrepancies:
            pytest.skip("no discrepancies at this scale")
        corpus = build_corpus(
            config.generator_config(config.arm_fptype("fp64")),
            config.n_programs_fp64,
            config.arm_seed("fp64"),
        )
        tests_by_id = {t.test_id: t for t in corpus}
        verdicts = triage_tests(runner, tests_by_id, arm.discrepancies, limit=10)
        assert verdicts
        resolved = [v for v in verdicts if v.cause != Cause.UNKNOWN]
        # The model has exactly five mechanisms, all probed; nearly all
        # discrepancies must resolve.
        assert len(resolved) >= 0.7 * len(verdicts)

    def test_table_renders(self, runner):
        verdicts = [
            triage_discrepancy(runner, fig4_testcase(), O0, 0),
            triage_discrepancy(runner, fig5_testcase(), O0, 0),
        ]
        text = triage_table(verdicts).render()
        assert "math-library" in text

    def test_limit_zero_triages_nothing(self, runner):
        """``limit=0`` must mean "none", not fall through to "all"."""
        from repro.harness.differential import Discrepancy, classify_pair
        from repro.harness.runner import DifferentialRunner

        test = fig4_testcase()
        rn, ra, _, _ = runner.run_single(test, O0, 0)
        d = Discrepancy(
            test_id=test.test_id,
            input_index=0,
            opt_label="O0",
            dclass=classify_pair(rn.value, ra.value),
            lhs_printed=rn.printed,
            rhs_printed=ra.printed,
            lhs_outcome=rn.outcome,
            rhs_outcome=ra.outcome,
        )
        tests_by_id = {test.test_id: test}
        assert triage_tests(runner, tests_by_id, [d], limit=0) == []
        assert len(triage_tests(runner, tests_by_id, [d], limit=None)) == 1

    def test_table_counts_functions_per_cause(self, runner):
        """A function implicated under one cause must not inflate another
        cause's row (counts used to be computed globally)."""
        from repro.analysis.triage import Cause, TriageVerdict

        verdicts = [
            TriageVerdict("t1", 0, "O0", Cause.MATH_LIBRARY, functions=("fmod",)),
            TriageVerdict("t2", 0, "O0", Cause.MATH_LIBRARY, functions=("fmod",)),
            TriageVerdict("t3", 0, "O3_FM", Cause.FAST_MATH_LIBRARY, functions=("fmod",)),
        ]
        rows = triage_table(verdicts).rows
        by_cause = {row[0]: row[2] for row in rows}
        assert by_cause[Cause.MATH_LIBRARY] == "fmod×2"
        assert by_cause[Cause.FAST_MATH_LIBRARY] == "fmod×1"


def _scalar_verdict(runner, test, opt, index):
    """Reference triage: one scalar ``run_single`` per probe, on the
    runner and on freshly built equalized runners, in the probe order
    of the per-discrepancy algorithm.  Returns (cause, functions,
    passes)."""
    def agree(probe_runner, probe_opt):
        lhs, rhs, _, _ = probe_runner.run_single(test, probe_opt, index)
        return outcomes_equivalent(lhs.value, rhs.value)

    lib = build_ablated_runner(AblationSpec("mathlib", "", same_mathlib=True))
    ftz = build_ablated_runner(AblationSpec("ftz", "", same_ftz=True))
    fast_math = opt.fast_math and test.fptype is FPType.FP32
    report = isolate_divergence(runner, test, opt, index)
    functions = ()
    if opt.label != "O0" and agree(runner, O0):
        cause = Cause.FTZ if fast_math and agree(ftz, opt) else Cause.OPTIMIZATION
    elif agree(lib, opt):
        cause = Cause.FAST_MATH_LIBRARY if fast_math else Cause.MATH_LIBRARY
        functions = _functions_near_divergence(test, report)
    elif fast_math and agree(ftz, opt):
        cause = Cause.FTZ
    else:
        cause = Cause.UNKNOWN
    return cause, functions, report.nvcc_passes, report.hipcc_passes


def _summary(verdict):
    return verdict.cause, verdict.functions, verdict.nvcc_passes, verdict.hipcc_passes


def _batched_vs_scalar(runner, tests, opts=PAPER_OPT_SETTINGS):
    """Sweep each test like an evaluation does, triage its discrepancies
    as one batch (O0 read from the sweep when ``opts`` has it), and
    compare every verdict with the scalar reference.  Returns the
    (opt label, cause) of every compared discrepancy."""
    seen = []
    for test in tests:
        pairs = runner.run_sweep(test, opts)
        targets = [
            (opt, d.input_index) for opt in opts for d in pairs[opt.label].discrepancies
        ]
        if not targets:
            continue
        batched = triage_batch(runner, test, targets, pairs.get("O0"))
        for (opt, index), verdict in zip(targets, batched):
            assert (verdict.opt_label, verdict.input_index) == (opt.label, index)
            assert _summary(verdict) == _scalar_verdict(runner, test, opt, index), (
                test.test_id, opt.label, index,
            )
            seen.append((opt.label, verdict.cause))
    return seen


class TestBatchedTriage:
    """The batched probes give the scalar per-discrepancy verdicts."""

    def test_paper_kernels(self, runner):
        for test, opt in (
            (fig4_testcase(), O0),
            (fig5_testcase(), O0),
            (case3_engineered_testcase(), O1),
        ):
            (verdict,) = triage_batch(runner, test, [(opt, 0)])
            assert _summary(verdict) == _scalar_verdict(runner, test, opt, 0)
        seen = _batched_vs_scalar(
            runner, [fig4_testcase(), fig5_testcase(), case3_engineered_testcase()]
        )
        assert seen

    def test_fp32_campaign_discrepancies(self, runner, small_fp32_corpus):
        """Covers O3_FM discrepancies, where the FTZ and fast-math
        library branches live, and multi-discrepancy batches."""
        seen = _batched_vs_scalar(runner, small_fp32_corpus)
        causes = {cause for _, cause in seen}
        assert any(label == "O3_FM" for label, _ in seen)
        assert {
            Cause.FTZ, Cause.FAST_MATH_LIBRARY, Cause.OPTIMIZATION, Cause.MATH_LIBRARY,
        } <= causes

    def test_fp32_campaign_through_triage_tests(self, runner):
        """``triage_tests`` groups a campaign arm's discrepancies per test
        (no O0 result at hand, so each group takes one O0 sweep) and
        keeps their order."""
        from repro.harness.campaign import CampaignConfig, run_campaign
        from repro.varity.corpus import build_corpus

        config = CampaignConfig(
            seed=31, n_programs_fp64=2, n_programs_fp32=20, inputs_per_program=3,
            include_hipify=False,
        )
        discrepancies = run_campaign(config).arms["fp32"].discrepancies
        corpus = build_corpus(
            config.generator_config(config.arm_fptype("fp32")),
            config.n_programs_fp32,
            config.arm_seed("fp32"),
        )
        tests_by_id = {t.test_id: t for t in corpus}
        verdicts = triage_tests(runner, tests_by_id, discrepancies)
        assert len(verdicts) == len(discrepancies)
        assert any(d.opt_label == "O3_FM" for d in discrepancies)
        assert len({d.test_id for d in discrepancies}) < len(discrepancies)
        for d, verdict in zip(discrepancies, verdicts):
            assert (verdict.test_id, verdict.opt_label, verdict.input_index) == (
                d.test_id, d.opt_label, d.input_index,
            )
            opt = OptSetting.from_label(d.opt_label)
            test = tests_by_id[d.test_id]
            assert _summary(verdict) == _scalar_verdict(runner, test, opt, d.input_index)

    def test_hipify_arm(self, runner, small_fp32_corpus):
        seen = _batched_vs_scalar(runner, [t.hipified() for t in small_fp32_corpus])
        assert seen

    def test_opts_without_o0_take_the_fallback_sweep(self, runner, small_fp32_corpus):
        opts = tuple(o for o in PAPER_OPT_SETTINGS if o.label != "O0")
        seen = _batched_vs_scalar(runner, small_fp32_corpus, opts)
        assert seen and all(label != "O0" for label, _ in seen)

    def test_trapped_row_rerun_through_scalar_probe(self, runner, monkeypatch):
        """A row the batch reports as skipped (trapped) is answered by the
        scalar probe, never read as agreement."""
        from repro.harness.runner import PairResult

        test = case3_engineered_testcase()
        skipped_o0 = PairResult([], [], [], skipped_inputs=[0])
        calls = []
        original = DifferentialRunner.run_single

        def spy(self, test, opt, index, **kwargs):
            calls.append((opt.label, index))
            return original(self, test, opt, index, **kwargs)

        monkeypatch.setattr(DifferentialRunner, "run_single", spy)
        probes = probe_discrepancies(runner, test, [(O1, 0)], skipped_o0)
        assert calls == [("O0", 0)]
        lhs, rhs, _, _ = original(runner, test, O0, 0)
        assert probes.agree[("O0", "O0", 0)] == outcomes_equivalent(lhs.value, rhs.value)

    @pytest.mark.xfail(
        strict=True,
        reason="ablation probes always build the nvcc/hipcc (V100/MI250X) pair",
    )
    def test_nvcc_cpu_triage_stays_on_its_own_pair(self, small_fp32_corpus, monkeypatch):
        """Triaging an nvcc-cpu discrepancy builds no hipcc compiler and no
        AMD device: every probe must run on the pair that diverged."""
        from repro.analysis import triage
        from repro.compilers.hipcc import HipccCompiler
        from repro.devices.device import Device
        from repro.devices.vendor import Vendor

        runner = DifferentialRunner(stacks=("nvcc", "cpu"))
        found = None
        for test in small_fp32_corpus:
            pair = runner.run_sweep(test, [O0])["O0"]
            if pair.discrepancies:
                found = (test, pair.discrepancies[0].input_index)
                break
        assert found is not None, "no nvcc-cpu discrepancy at this scale"
        built = []
        original_init = Device.__init__

        def record_device(self, spec, *args, **kwargs):
            built.append(spec.vendor)
            original_init(self, spec, *args, **kwargs)

        def record_hipcc(cls, *args, **kwargs):
            built.append(cls.__name__)
            return object.__new__(cls)

        monkeypatch.setattr(Device, "__init__", record_device)
        monkeypatch.setattr(HipccCompiler, "__new__", record_hipcc)
        monkeypatch.setattr(triage, "_probe_runner", triage._probe_runner.__wrapped__)
        test, index = found
        triage_discrepancy(runner, test, O0, index)
        assert Vendor.AMD not in built
        assert not [b for b in built if isinstance(b, str)]


class TestReduction:
    def test_fig4_reduces_dramatically(self, runner):
        result = reduce_testcase(fig4_testcase(), O0, 0, runner=runner)
        assert result.reduced_size < result.original_size / 3
        # The reduced kernel still contains the culprit call...
        calls = [
            n
            for stmt in result.reduced.program.kernel.body
            for n in collect(stmt, lambda x: isinstance(x, Call))
        ]
        assert any(c.func == "fmod" for c in calls)
        # ...and still shows the same discrepancy class.
        rn, ra, _, _ = runner.run_single(result.reduced, O0, 0)
        assert classify_pair(rn.value, ra.value) is result.dclass

    def test_fig5_already_minimal(self, runner):
        result = reduce_testcase(fig5_testcase(), O0, 0, runner=runner)
        # Fig. 5 is a 2-statement kernel; reduction cannot break it and
        # must keep the divergence.
        rn, ra, _, _ = runner.run_single(result.reduced, O0, 0)
        assert classify_pair(rn.value, ra.value) is result.dclass
        assert result.reduced_size <= result.original_size

    def test_case3_reduction_keeps_opt_divergence(self, runner):
        result = reduce_testcase(case3_engineered_testcase(), O1, 0, runner=runner)
        rn, ra, _, _ = runner.run_single(result.reduced, O1, 0)
        assert classify_pair(rn.value, ra.value) is result.dclass

    def test_unused_params_pruned(self, runner):
        result = reduce_testcase(fig4_testcase(), O0, 0, runner=runner)
        kernel = result.reduced.program.kernel
        from repro.analysis.reduce import _used_names

        used = _used_names(kernel)
        for p in kernel.params[1:]:  # comp always stays
            assert p.name in used
        # inputs stayed aligned
        for vec in result.reduced.inputs:
            assert len(vec.values) == len(kernel.params)

    def test_non_divergent_test_rejected(self, runner, small_fp64_corpus):
        # Find a consistent (test, input) pair and expect a ValueError.
        for test in small_fp64_corpus:
            rn, ra, _, _ = runner.run_single(test, O0, 0)
            if classify_pair(rn.value, ra.value) is None:
                with pytest.raises(ValueError):
                    reduce_testcase(test, O0, 0, runner=runner)
                return
        pytest.skip("every test diverged (unexpected at this scale)")

    def test_kernel_size_metric(self):
        t = fig5_testcase()
        assert kernel_size(t.program.kernel) > 0

    def test_reduced_program_is_renderable(self, runner):
        from repro.codegen.cuda import render_cuda
        from repro.hipify.translator import hipify_source

        result = reduce_testcase(fig4_testcase(), O0, 0, runner=runner)
        src = render_cuda(result.reduced.program)
        assert "__global__" in src
        hipify_source(src)  # must translate cleanly too
