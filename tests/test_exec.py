"""Tests for the unified execution-service layer (repro.exec).

The contracts pinned here are the redesign's acceptance criteria:
content keying (a HIPIFY twin shares its native test's identity), the
two-tier RunStore's rebinding / LRU eviction / disk round-trip, service
dedup of identical work, backend equivalence, and — the headline —
worker-count invariance of campaign JSON and fuzz ledgers.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter

import pytest

from repro.compilers.options import OptLevel, OptSetting, PAPER_OPT_SETTINGS
from repro.exec import (
    CHUNK_CACHE,
    CorpusTestSpec,
    ExecutionService,
    NO_CACHE,
    ProcessPoolBackend,
    RunStore,
    SerialBackend,
    SweepRequest,
    content_id,
    make_backend,
    content_id_for,
)
from repro.fp.types import FPType
from repro.fuzz.engine import FuzzConfig, run_fuzz
from repro.harness.outcomes import RunRecord
from repro.harness.runner import DifferentialRunner
from repro.telemetry.spans import Tracer, set_tracer
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus

OPTS2 = (OptSetting(OptLevel.O0), OptSetting(OptLevel.O3, fast_math=True))


@pytest.fixture(scope="module")
def fp32_corpus():
    return build_corpus(GeneratorConfig.fp32(inputs_per_program=2), 8, root_seed=424)


def _record(idx: int, value: float, printed=None, flags=None) -> RunRecord:
    return RunRecord(
        test_id="orig",
        input_index=idx,
        opt_label="O0",
        compiler="nvcc",
        printed=printed if printed is not None else repr(value),
        value=value,
        flags=flags,
    )


# ----------------------------------------------------------------- content
class TestContentKeying:
    def test_twin_shares_native_identity(self, fp32_corpus):
        test = fp32_corpus.tests[0]
        assert content_id_for(test) == content_id_for(test.hipified())

    def test_different_programs_differ(self, fp32_corpus):
        assert content_id_for(fp32_corpus.tests[0]) != content_id_for(
            fp32_corpus.tests[1]
        )

    def test_prefix_namespaces_only_the_rendering(self):
        a = content_id(FPType.FP32, "body", prefix="fuzz")
        b = content_id(FPType.FP32, "body")
        assert a.startswith("fuzz-fp32-") and b.startswith("ck-fp32-")
        assert a.split("-")[-1] == b.split("-")[-1]  # same hash


# ------------------------------------------------------------------- store
class TestRunStore:
    def test_rebinds_to_requesting_test_id(self):
        store = RunStore()
        store.put("key", "O0", [_record(0, 1.5), None, _record(2, math.inf)])
        out = store.get("key", "O0", test_id="other")
        assert out[1] is None
        assert out[0].test_id == "other" and out[0].value == 1.5
        assert out[2].value == math.inf
        assert store.hits == 1 and store.misses == 0

    def test_nan_payload_bits_survive(self):
        nan = math.nan
        store = RunStore()
        store.put("key", "O0", [_record(0, nan, printed="-nan")])
        (rec,) = store.get("key", "O0", test_id="t")
        assert math.isnan(rec.value) and rec.printed == "-nan"

    def test_miss_counted(self):
        store = RunStore()
        assert store.get("ghost", "O0", test_id="t") is None
        assert store.misses == 1

    def test_lru_eviction(self):
        store = RunStore(max_entries=2)
        for i in range(3):
            store.put(f"k{i}", "O0", [_record(0, float(i))])
        assert len(store) == 2 and store.evictions == 1
        assert store.get("k0", "O0", test_id="t") is None  # evicted, no disk
        assert store.get("k2", "O0", test_id="t") is not None

    def test_disk_round_trip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first = RunStore(path=path)
        first.put(
            "key", "O0", [_record(0, 2.5, flags={"inexact": 1}), None]
        )
        first.close()
        reopened = RunStore(path=path)
        out = reopened.get("key", "O0", test_id="fresh")
        assert out[0].test_id == "fresh" and out[0].value == 2.5
        assert out[0].flags == {"inexact": 1}
        assert out[1] is None
        assert reopened.disk_hits == 1

    def test_evicted_entry_served_from_disk(self, tmp_path):
        store = RunStore(path=tmp_path / "store.jsonl", max_entries=1)
        store.put("k0", "O0", [_record(0, 1.0)])
        store.put("k1", "O0", [_record(0, 2.0)])  # evicts k0 from memory
        assert store.evictions == 1
        out = store.get("k0", "O0", test_id="t")
        assert out is not None and out[0].value == 1.0
        assert store.disk_hits == 1

    def test_torn_disk_tail_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = RunStore(path=path)
        store.put("k0", "O0", [_record(0, 1.0)])
        store.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "entry", "k": "k1"')  # killed mid-append
        reopened = RunStore(path=path)
        assert reopened.get("k0", "O0", test_id="t") is not None
        assert reopened.get("k1", "O0", test_id="t") is None

    def test_append_after_torn_tail_survives_reopen(self, tmp_path):
        """An entry appended over a torn tail must not merge into the
        fragment — a third open has to serve both old and new entries."""
        path = tmp_path / "store.jsonl"
        store = RunStore(path=path)
        store.put("k0", "O0", [_record(0, 1.0)])
        store.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "entry", "k": "torn"')
        second = RunStore(path=path)
        second.put("k1", "O0", [_record(0, 2.0)])
        second.close()
        third = RunStore(path=path)
        assert third.get("k0", "O0", test_id="t")[0].value == 1.0
        assert third.get("k1", "O0", test_id="t")[0].value == 2.0

    def test_view_pairs_native_with_twin(self, fp32_corpus):
        """The store view replays a twin's CUDA half bit-identically —
        the fused-arm invariant, now by content instead of test id."""
        test = fp32_corpus.tests[0]
        store = RunStore()
        DifferentialRunner().run_sweep(test, OPTS2, lhs_cache=store.view_for(test))
        twin = test.hipified()
        view = store.view_for(twin)
        runner = DifferentialRunner()
        sweep = runner.run_sweep(twin, OPTS2, lhs_cache=view)
        assert runner.lhs_executions == 0
        assert view.hits == len(OPTS2) * len(test.inputs)
        scratch = DifferentialRunner().run_sweep(twin, OPTS2)
        key = lambda r: (r.test_id, r.input_index, r.opt_label, r.printed)
        for label in sweep:
            assert list(map(key, sweep[label].lhs_runs)) == list(
                map(key, scratch[label].lhs_runs)
            )


# ----------------------------------------------------------------- service
class TestExecutionService:
    def test_identical_requests_dedupe(self, fp32_corpus):
        test = fp32_corpus.tests[0]
        service = ExecutionService()
        a, b = service.run_chunk(
            [
                SweepRequest(test=test, opts=OPTS2, tag=("first",)),
                SweepRequest(test=test, opts=OPTS2, tag=("second",)),
            ]
        )
        assert not a.deduped and b.deduped
        assert b.nvcc_executions == 0 and b.hipcc_executions == 0
        assert service.metrics.deduped == 1
        keys = lambda o: [
            (d.test_id, d.input_index, d.opt_label, d.dclass.value)
            for d in o.iter_discrepancies()
        ]
        assert keys(a) == keys(b)

    def test_twin_request_is_not_a_dupe_but_rides_the_store(self, fp32_corpus):
        test = fp32_corpus.tests[0]
        service = ExecutionService()
        native, twin = service.run_chunk(
            [
                SweepRequest(test=test, opts=OPTS2, tag=("native",), cache=CHUNK_CACHE),
                SweepRequest(
                    test=test.hipified(), opts=OPTS2, tag=("hipify",), cache=CHUNK_CACHE
                ),
            ]
        )
        assert not twin.deduped  # different HIP compilation: real work
        assert twin.nvcc_executions == 0  # ... but the CUDA half replayed
        assert twin.nvcc_cache_hits == len(OPTS2) * len(test.inputs)
        assert native.nvcc_executions > 0 and native.nvcc_cache_hits == 0

    def test_corpus_spec_resolves_like_the_corpus(self, fp32_corpus):
        spec = CorpusTestSpec(
            gen=fp32_corpus.config, index=3, root_seed=fp32_corpus.root_seed
        )
        test = spec.resolve()
        assert test.test_id == fp32_corpus.tests[3].test_id
        assert content_id_for(test) == content_id_for(fp32_corpus.tests[3])

    def test_pool_backend_matches_serial(self, fp32_corpus):
        chunks = [
            [
                SweepRequest(test=t, opts=OPTS2, tag=("native",), cache=CHUNK_CACHE),
                SweepRequest(
                    test=t.hipified(), opts=OPTS2, tag=("hipify",), cache=CHUNK_CACHE
                ),
            ]
            for t in fp32_corpus.tests[:4]
        ]

        def flatten(service):
            out = []
            try:
                for outcomes in service.run_sweeps(chunks):
                    for o in outcomes:
                        out.append(
                            (
                                o.tag,
                                o.test_id,
                                o.nvcc_executions,
                                o.nvcc_cache_hits,
                                sorted(
                                    (d.test_id, d.input_index, d.opt_label, d.dclass.value)
                                    for d in o.iter_discrepancies()
                                ),
                            )
                        )
            finally:
                service.close()
            return out

        serial = flatten(ExecutionService(backend=SerialBackend()))
        pooled = flatten(ExecutionService(backend=ProcessPoolBackend(2)))
        assert serial == pooled

    def test_make_backend(self):
        assert make_backend(0).name == "serial"
        assert make_backend(1).name == "serial"
        backend = make_backend(3)
        assert backend.name == "process-pool" and backend.workers == 3
        backend.close()


# ---------------------------------------------------- worker-count invariance
class TestWorkerInvariance:
    def test_campaign_json_invariant_across_workers(self, tmp_path):
        """The acceptance bar: repro-campaign --json at workers=0 and
        workers=2 differ only in the recorded worker count and wall
        clock — every result and counter is byte-identical."""
        from repro.cli import main

        def payload(workers):
            out = tmp_path / f"campaign-w{workers}.json"
            assert (
                main(
                    [
                        "--seed", "7", "--fp64-programs", "8", "--fp32-programs", "4",
                        "--inputs", "2", "--workers", str(workers),
                        "--json", str(out),
                    ]
                )
                == 0
            )
            data = json.loads(out.read_text())
            # The only legitimately scheduling-dependent fields: wall
            # clock, the worker count, and the exec phase timings.
            data.pop("elapsed_seconds")
            data["config"].pop("workers")
            data["exec"].pop("phase_seconds")
            return data

        serial = payload(0)
        pooled = payload(2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)
        assert "exec" in serial and serial["exec"]["nvcc_executions"] > 0

    def test_fp16_arm_json_invariant_across_workers(self, tmp_path):
        """The FP16 acceptance bar: --include-fp16 produces the
        fp16/fp16_hipify pair with nonzero runs, byte-identical across
        worker counts, and the hipify arm's CUDA half fully replayed
        from the fused pair's run store."""
        from repro.cli import main

        def payload(workers):
            out = tmp_path / f"fp16-w{workers}.json"
            assert (
                main(
                    [
                        "--seed", "7", "--fp64-programs", "2", "--no-fp32",
                        "--include-fp16", "--fp16-programs", "6", "--inputs", "2",
                        "--workers", str(workers), "--json", str(out),
                        "--no-adjacency",
                    ]
                )
                == 0
            )
            data = json.loads(out.read_text())
            data.pop("elapsed_seconds")
            data["config"].pop("workers")
            data["exec"].pop("phase_seconds")
            return data

        serial = payload(0)
        pooled = payload(2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)
        assert set(serial["arms"]) == {"fp64", "fp64_hipify", "fp16", "fp16_hipify"}
        fp16 = serial["arms"]["fp16"]
        twin = serial["arms"]["fp16_hipify"]
        assert fp16["total_runs"] > 0 and twin["total_runs"] > 0
        # Cross-arm nvcc replay holds for the new precision pair.
        assert twin["nvcc_executions"] == 0
        assert twin["nvcc_cache_hits"] > 0

    def test_fuzz_ledger_invariant_across_workers(self, tmp_path):
        config = FuzzConfig(
            seed=11,
            n_seed_programs=10,
            inputs_per_program=2,
            max_mutants=12,
            batch_size=6,
            minimize=False,
        )
        serial = run_fuzz(config, ledger=tmp_path / "serial.jsonl")
        pooled = run_fuzz(
            dataclasses.replace(config, workers=2), ledger=tmp_path / "pooled.jsonl"
        )
        assert (tmp_path / "serial.jsonl").read_bytes() == (
            tmp_path / "pooled.jsonl"
        ).read_bytes()
        # Committed accounting is invariant too (discarded speculation is
        # never counted).
        for attr in (
            "pair_runs", "nvcc_executions", "nvcc_cache_hits",
            "mutants_run", "fresh_explored", "duplicates", "raw_discrepancies",
        ):
            assert getattr(serial, attr) == getattr(pooled, attr), attr

    def test_workers_excluded_from_fingerprint(self, tmp_path):
        assert FuzzConfig(workers=4).fingerprint() == FuzzConfig().fingerprint()
        # ... so a serial ledger resumes under a parallel config.
        config = FuzzConfig(
            seed=11, n_seed_programs=8, inputs_per_program=2,
            max_mutants=6, batch_size=3, minimize=False,
        )
        run_fuzz(config, ledger=tmp_path / "ledger.jsonl")
        resumed = run_fuzz(
            dataclasses.replace(config, workers=2, max_mutants=6),
            ledger=tmp_path / "ledger.jsonl",
            resume=True,
        )
        assert resumed.resumed_iterations == 6

    def test_ablation_counts_invariant_across_workers(self, fp32_corpus):
        from repro.analysis.ablation import ABLATIONS, run_ablation

        specs = ABLATIONS[:2]
        tests = fp32_corpus.tests[:4]
        corpus = dataclasses.replace(fp32_corpus, tests=tests)
        serial = run_ablation(corpus, specs, OPTS2)
        pooled = run_ablation(corpus, specs, OPTS2, workers=2)
        assert [r.by_opt for r in serial] == [r.by_opt for r in pooled]


class TestFuzzCliWorkers:
    def test_workers_flag_parses(self):
        from repro.fuzz.cli import _config_from_args, build_parser

        parser = build_parser()
        config = _config_from_args(parser, parser.parse_args(["--workers", "3"]))
        assert config.workers == 3
        with pytest.raises(SystemExit):
            _config_from_args(parser, parser.parse_args(["--workers", "-1"]))

    def test_report_prints_exec_metrics(self, capsys):
        from repro.fuzz.cli import main

        assert (
            main(
                [
                    "--seed", "11", "--seed-programs", "6", "--inputs", "2",
                    "--mutants", "4", "--no-minimize", "--report",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Execution service (committed work):" in out
        assert "nvcc cache misses" in out


# ------------------------------------------------------ one dispatch path
class TestOneDispatchPath:
    """Every backend, group size, trace mode and delivery order runs
    chunks through the same ``_run_chunk``, so what comes back is the
    same: outcomes, counters, and each chunk's own span batch."""

    N_CHUNKS = 10  # more than one group of 8

    @pytest.fixture(scope="class")
    def chunks(self, fp32_corpus):
        corpus = fp32_corpus.tests
        tests = [corpus[i % len(corpus)] for i in range(self.N_CHUNKS)]
        return [
            [
                SweepRequest(test=t, opts=OPTS2, tag=("native", i), cache=CHUNK_CACHE),
                SweepRequest(
                    test=t.hipified(), opts=OPTS2, tag=("hipify", i), cache=CHUNK_CACHE
                ),
            ]
            for i, t in enumerate(tests)
        ]

    @pytest.fixture(scope="class")
    def pool(self):
        backend = ProcessPoolBackend(2)
        yield backend
        backend.close()

    @staticmethod
    def _outcome_keys(outcomes):
        return [
            (
                o.tag, o.test_id, o.deduped, o.nvcc_executions, o.nvcc_cache_hits,
                o.hipcc_executions,
                [
                    (d.test_id, d.input_index, d.opt_label, d.dclass.value)
                    for d in o.iter_discrepancies()
                ],
            )
            for o in outcomes
        ]

    def _run(self, backend, chunks, *, traced, ordered):
        """One sweep: ``(outcomes by chunk index, counters, tracer)``."""
        service = ExecutionService(backend=backend)
        tracer = Tracer() if traced else None
        previous = set_tracer(tracer)
        try:
            if ordered:
                delivered = list(enumerate(service.run_sweeps(chunks)))
            else:
                delivered = list(service.run_sweeps_unordered(chunks))
        finally:
            set_tracer(previous)
        by_index = {i: self._outcome_keys(outcomes) for i, outcomes in delivered}
        assert sorted(by_index) == list(range(len(chunks)))
        counters = service.stats()
        counters.pop("phase_seconds")
        return by_index, counters, tracer

    @staticmethod
    def _names_by_chunk(tracer):
        names = {}
        for rec in tracer.records():
            if rec.chunk >= 0:
                names.setdefault(rec.chunk, Counter())[rec.name] += 1
        return names

    @pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
    def test_same_results_at_any_backend_group_and_trace(self, chunks, pool, ordered):
        ref_outcomes, ref_counters, _ = self._run(
            SerialBackend(), chunks, traced=False, ordered=ordered
        )
        _, _, serial_tracer = self._run(
            SerialBackend(), chunks, traced=True, ordered=ordered
        )
        ref_names = self._names_by_chunk(serial_tracer)
        assert sorted(ref_names) == list(range(len(chunks)))
        for group in (1, 8):
            pool.group_requests = group
            for traced in (False, True):
                outcomes, counters, tracer = self._run(
                    pool, chunks, traced=traced, ordered=ordered
                )
                assert outcomes == ref_outcomes, (group, traced)
                assert counters == ref_counters, (group, traced)
                if not traced:
                    continue
                names = self._names_by_chunk(tracer)
                assert all(n["exec.chunk"] == 1 for n in names.values())
                # In process and in a worker, a chunk records the same
                # spans under its own index.
                assert names == ref_names, group
                assert not [
                    r for r in tracer.records()
                    if r.name.startswith("pool.") and r.chunk >= 0
                ]

    @pytest.mark.parametrize("remote", [False, True], ids=["serial", "pool"])
    def test_half_consumed_sweep_leaves_the_service_usable(self, chunks, pool, remote):
        """The fuzzer abandons speculative windows mid-sweep; the same
        service must then run the next sweep exactly, counting only the
        chunks it delivered."""
        ref, _, _ = self._run(SerialBackend(), chunks, traced=False, ordered=True)
        pool.group_requests = 8
        service = ExecutionService(backend=pool if remote else SerialBackend())
        sweep = service.run_sweeps(chunks)
        assert self._outcome_keys(next(sweep)) == ref[0]
        sweep.close()
        assert service.metrics.chunks == 1
        again = list(service.run_sweeps(chunks))
        assert {i: self._outcome_keys(o) for i, o in enumerate(again)} == ref
        assert service.metrics.chunks == 1 + len(chunks)

    def test_pool_spans_tag_groups_not_chunks(self):
        """A traced ``--workers 2`` campaign: ``pool.*`` spans carry the
        payload's group index, never a chunk index (a group of 8 chunks
        is one payload)."""
        from repro.harness.campaign import CampaignConfig, run_campaign

        config = CampaignConfig(
            seed=5, n_programs_fp64=24, n_programs_fp32=16, inputs_per_program=1,
            workers=2,
        )
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            run_campaign(config)
        finally:
            set_tracer(previous)
        records = tracer.records()
        n_chunks = sum(r.name == "exec.chunk" for r in records)
        assert n_chunks > 8
        pool_spans = [r for r in records if r.name.startswith("pool.")]
        assert pool_spans and all(r.chunk == -1 for r in pool_spans)
        groups = {dict(r.args)["group"] for r in pool_spans}
        assert groups == set(range(math.ceil(n_chunks / 8)))
