"""Tests of the benchmark harness itself.

    python3 -m pytest repobench/tests -q

The tiny workload runs start a real `repro serve`.
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from benchlib import flows, inputs, layers, service, workloads  # noqa: E402
from benchlib.metrics import (END_TO_END, NAME_RE, PER_LAYER,  # noqa: E402
                              SELF_TIME_LAYERS, SPEC, UNIT_RE, median,
                              percentile, result_line)

E2E_NAMES = {m.name for m in END_TO_END}
LAYER_NAMES = {m.name for m in PER_LAYER}


# -- BENCHMARK.json ----------------------------------------------------------------

def test_metric_names_units_and_directions():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME_RE.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for metric in END_TO_END + PER_LAYER:
        assert NAME_RE.match(metric.name), metric.name
        assert UNIT_RE.match(metric.unit), metric.unit
        assert metric.better in ("higher", "lower")
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25
    for metric in PER_LAYER:
        assert metric.bound is None
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    assert set(SELF_TIME_LAYERS.values()) <= LAYER_NAMES


# -- percentiles and the result line ---------------------------------------------

def test_no_percentile_without_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.9)
    assert percentile(list(range(100)), 0.9) == 89
    assert percentile([3.0], 0.5) == 3.0
    assert median([1, 2, 3, 10]) == 2.5


def test_result_line_holds_exactly_the_declared_metrics():
    values = {name: 1.5 for name in E2E_NAMES}
    line = json.loads(result_line(True, 10, 1, values, traced=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == E2E_NAMES
    with pytest.raises(ValueError):
        result_line(True, 10, 0, {**values, "extra": 1.0}, traced=False)
    with pytest.raises(ValueError):
        result_line(True, 10, 0, values, traced=True)


# -- inputs ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def manifest():
    from repro.corpus.manifest import load_manifest
    return load_manifest(ROOT / workloads.MANIFEST)


def test_draws_are_seeded_and_cover_every_stratum(manifest):
    strata = {e["stratum"] for e in manifest["entries"]}
    for draw in (inputs.corpus_draw, inputs.serve_draw):
        first = draw(manifest, 7)
        assert [e["id"] for e in first] == [e["id"] for e in draw(manifest, 7)]
        assert [e["id"] for e in first] != [e["id"] for e in draw(manifest, 8)]
        assert {e["stratum"] for e in first} == strata
        assert len(first) >= 100
        assert len({e["id"] for e in first}) == len(first)


def test_serve_sequence_sends_each_request_first_then_repeats():
    programs = [(f"p{i}", f"src{i}", (i * 37) % 101) for i in range(40)]
    distinct, sends = inputs.serve_requests(programs, 3)
    order = [index for index, _ in sends]
    assert len(order) == len(distinct) * (1 + inputs.SERVE_REPEATS)
    firsts = [order.index(i) for i in range(len(distinct))]
    assert firsts == sorted(firsts)
    for index, first in enumerate(firsts):
        later = [p for p, i in enumerate(order) if i == index and p != first]
        assert len(later) == inputs.SERVE_REPEATS
        assert min(later) >= first + 2
        # only the last repeat goes out under another label
        assert [p for p, (i, again) in enumerate(sends)
                if i == index and again] == [max(later)]
    assert inputs.serve_requests(programs, 3) == (distinct, sends)
    # the endpoint mix once per five programs of neighbouring size
    by_size = sorted(range(40), key=lambda i: programs[i][2])
    for start in range(0, 40, 5):
        assert sorted(distinct[i][0] for i in by_size[start:start + 5]) \
            == sorted(inputs.SERVE_MIX)


# -- layer attribution --------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_and_unattributed_partition_the_window():
    module = types.SimpleNamespace()
    module.inner = lambda: "inner"

    def outer():
        return module.inner() + module.inner()
    module.outer = outer
    original = module.inner
    tracer = layers.LayerTracer("test", clock=_Clock())
    tracer.install([(module, "outer", "timing"), (module, "inner", "sched")])
    with tracer.window():
        with tracer.phase("harness"):
            assert module.outer() == "innerinner"
    tracer.uninstall()
    assert module.inner is original
    assert tracer.calls == {"timing": 1, "sched": 2}
    assert tracer.self_s["sched"] == 2.0
    assert tracer.self_s["timing"] == 5.0 - 2.0
    assert (sum(tracer.self_s.values()) + tracer.unattributed_s()
            == tracer.elapsed_s)


def test_traced_pass_reports_every_layer_metric():
    tracer = layers.LayerTracer("test")
    tracer.install(layers.pipeline_targets(workloads))
    result = flows.run_pass(lambda: flows.kernel_programs(["fft"]),
                            flows.KERNELS_FLOW, _workdir("traced"),
                            tracer=tracer)
    assert result.failed == 0
    import repro.pipeline.core as core
    assert not hasattr(core.compile_source, "__wrapped__")
    values = workloads.layer_values(tracer, result.counters, 1.0)
    assert set(values) == LAYER_NAMES
    for name in ("frontend.ms", "engines.execute_ms", "depgraph.builds",
                 "sched.ms", "hwsim.ms", "store.put_ms", "sim.steps",
                 "engines.jit_compiles", "spd.gain_evaluations"):
        assert values[name] > 0, name
    total = sum(tracer.self_s.values()) + tracer.unattributed_s()
    assert total == pytest.approx(tracer.elapsed_s, rel=1e-9)


# -- tiny workload runs: a wrong expected answer is a failed operation -------------

def _workdir(name):
    path = BENCH_DIR / "out" / f"test-{name}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def test_kernels_flow_counts_a_wrong_closed_form_as_failed():
    def programs():
        picked = flows.kernel_programs(["towers", "bubble", "quick"])
        return picked
    good = flows.run_pass(programs, flows.KERNELS_FLOW, _workdir("k"),
                          peak_rss=workloads._rss_mb)
    assert (good.attempted, good.failed, good.problems) == (9, 0, [])
    values = workloads._flow_values([good])
    assert set(values) == E2E_NAMES - {"setup_s"}
    assert values["requests_per_s"] == pytest.approx(
        (len(good.miss_ms) + len(good.hit_ms)) / good.window_s)
    assert values["peak_rss_mb"] == good.peak_rss_mb > 0

    def wrong():
        picked = programs()
        picked[0].expected_first = 4096  # towers moves 2**12 - 1 discs
        return picked
    bad = flows.run_pass(wrong, flows.KERNELS_FLOW, _workdir("k"))
    assert (bad.attempted, bad.failed) == (9, 1)
    assert "closed-form 4096" in bad.problems[0]


def test_corpus_flow_counts_a_wrong_fingerprint_as_failed(manifest):
    entries = sorted(manifest["entries"], key=lambda e: e["ops"])[:12]
    sources = workloads._regenerate(manifest, entries)
    entries[0] = dict(entries[0], fingerprint="0" * 64)
    result = flows.run_pass(
        lambda: flows.corpus_programs(entries, sources),
        flows.CORPUS_FLOW, _workdir("c"), peak_rss=workloads._rss_mb)
    assert (result.attempted, result.failed) == (36, 1)
    assert "manifest SHA-256" in result.problems[0]
    assert set(workloads._flow_values([result])) == E2E_NAMES - {"setup_s"}


def test_serve_round_checks_bodies_against_the_pipeline(manifest):
    entries = sorted(manifest["entries"], key=lambda e: e["ops"])[:5]
    from repro.corpus.manifest import entry_source
    programs = [(e["id"], entry_source(manifest, e), e["ops"])
                for e in entries]
    distinct, sends = inputs.serve_requests(programs, 0)
    assert sorted(ep for ep, _ in distinct) == sorted(inputs.SERVE_MIX)
    result = service.run_round(ROOT, _workdir("s"), "test",
                               lambda: (distinct, sends))
    assert len(result.records) == len(sends)
    assert sum(r.relabelled for r in result.records) == len(distinct)
    assert {r.cache for r in result.records} <= {"miss", "dedup", "hit"}
    reference = workloads.Pipeline(
        store=workloads.ArtifactStore(root=None))
    assert workloads._check_round(result, reference) == []
    # the in-process pipeline disagrees once the expected request is
    # not the one that was sent
    index = next(i for i, (ep, _) in enumerate(distinct) if ep == "time")
    endpoint, payload = distinct[index]
    result.distinct = list(distinct)
    result.distinct[index] = (endpoint, dict(
        payload, machine={"fus": 0, "memory": 6}))
    problems = workloads._check_round(result, reference)
    assert len(problems) == 1 and "/v1/time" in problems[0]
    layer = workloads._serve_layer_values(result)
    assert set(layer) == set(workloads._SERVE_LAYER_DEFAULTS)


def test_serve_values_give_each_metric_its_own_samples():
    result = service.RoundResult(load_s=2.0, peak_rss_mb=60.0)
    body = json.dumps({"result": {"ops": 10, "disambiguators": {
        "naive": {"cycles": 12}, "spec": {"cycles": 10,
                                          "code_size": 11}}}}).encode()
    for index in range(110):
        endpoint = "report" if index % 2 else "compile"
        result.distinct.append((endpoint, {}))
        result.records.append(service.Record(index, 100.0 + index, 200,
                                             "miss", body))
        result.records.append(service.Record(index, 0.5, 200, "hit", body))
        result.records.append(service.Record(index, 2.0, 200, "hit", body,
                                             relabelled=True))
    values = workloads._serve_values([result])
    assert set(values) == E2E_NAMES - {"setup_s"}
    assert values["requests_per_s"] == pytest.approx(330 / 2.0)
    reports = [100.0 + i for i in range(1, 110, 2)]
    assert values["program_ms.p50"] == median(reports)
    assert values["programs_per_s"] == pytest.approx(
        1e3 * len(reports) / sum(reports))
    assert values["miss_ms.p50"] == median([100.0 + i for i in range(110)])
    assert values["hit_ms.p50"] == 0.5
    assert values["warm_programs_per_s"] == pytest.approx(1e3 / 2.0)
    assert values["spec_speedup_geomean"] == pytest.approx(1.2)
    assert values["code_growth"] == pytest.approx(1.1)
