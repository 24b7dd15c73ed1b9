"""Tests for the automated debugging tools (triage + reduction).

These implement the paper's §VII future work, so the tests pin down the
behaviour on the paper's own case studies: Fig. 4 must triage to
``math-library via fmod`` and reduce to a kernel that still contains the
divergent ``fmod``; Fig. 5 to ``ceil``; the engineered Case-Study-3 kernel
to ``optimization-induced`` with the contraction pass implicated.
"""

from __future__ import annotations

import pytest

from repro.analysis.reduce import kernel_size, reduce_testcase
from repro.analysis.triage import (
    Cause,
    triage_discrepancy,
    triage_table,
    triage_tests,
)
from repro.apps.paper_kernels import (
    case3_engineered_testcase,
    fig4_testcase,
    fig5_testcase,
)
from repro.compilers.options import OptLevel, OptSetting
from repro.harness.differential import classify_pair
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
