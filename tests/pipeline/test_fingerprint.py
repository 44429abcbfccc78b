"""Fingerprint sensitivity: every cache-relevant input must change the key.

The store serves whatever the fingerprint addresses, so correctness of
the whole cache reduces to: two configurations that can produce
different artifacts must never share a fingerprint.
"""

from dataclasses import replace

from repro.disambig.pipeline import Disambiguator
from repro.disambig.spd_heuristic import SpDConfig
from repro.frontend.grafting import GraftConfig
from repro.machine.description import machine
from repro.machine.hw import hw_machine
from repro.passes import DEFAULT_CLEANUP, PassPipelineConfig
from repro.pipeline.core import Pipeline, PipelineConfig
from repro.pipeline.fingerprint import PIPELINE_VERSION, fingerprint
from repro.pipeline.store import ArtifactStore

SOURCE = """
float a[8];
int main() {
    a[1] = 2.0;
    print(a[1]);
    return 0;
}
"""


class TestFingerprintFunction:
    def test_deterministic(self):
        assert fingerprint({"a": 1}) == fingerprint({"a": 1})

    def test_key_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_payload_sensitivity(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_version_salt_present(self):
        # bumping PIPELINE_VERSION must invalidate every existing key
        assert fingerprint({}) != fingerprint({"pipeline_version":
                                               PIPELINE_VERSION + 1})


class TestCompileFingerprint:
    def test_source_change(self):
        config = PipelineConfig()
        assert (config.compile_fingerprint(SOURCE)
                != config.compile_fingerprint(SOURCE + "\n"))

    def test_graft_config_change(self):
        plain = PipelineConfig()
        grafted = PipelineConfig(graft=GraftConfig())
        tweaked = PipelineConfig(graft=GraftConfig(max_passes=1))
        fps = {p.compile_fingerprint(SOURCE) for p in (plain, grafted, tweaked)}
        assert len(fps) == 3

    def test_stable_across_instances(self):
        assert (PipelineConfig().compile_fingerprint(SOURCE)
                == PipelineConfig().compile_fingerprint(SOURCE))

    def test_guard_words_change(self):
        # guard_words alters the lowered IR, so it must key compiled
        # artifacts (and, chained, every downstream stage)
        plain = PipelineConfig()
        padded = PipelineConfig(guard_words=2)
        assert (plain.compile_fingerprint(SOURCE)
                != padded.compile_fingerprint(SOURCE))
        assert (plain.view_fingerprint(SOURCE, Disambiguator.STATIC)
                != padded.view_fingerprint(SOURCE, Disambiguator.STATIC))


class TestViewFingerprint:
    def test_kind_change(self):
        config = PipelineConfig()
        fps = {config.view_fingerprint(SOURCE, kind) for kind in Disambiguator}
        assert len(fps) == len(Disambiguator)

    def test_spd_config_changes_spec_view(self):
        base = PipelineConfig()
        tweaked = PipelineConfig(
            spd_config=replace(SpDConfig(), min_gain=2.5))
        assert (base.view_fingerprint(SOURCE, Disambiguator.SPEC)
                != tweaked.view_fingerprint(SOURCE, Disambiguator.SPEC))

    def test_spd_config_irrelevant_to_static_view(self):
        # only SPEC's Gain() heuristic reads the knobs; STATIC/NAIVE/
        # PERFECT views are shared across SpD configurations
        base = PipelineConfig()
        tweaked = PipelineConfig(
            spd_config=replace(SpDConfig(), min_gain=2.5))
        assert (base.view_fingerprint(SOURCE, Disambiguator.STATIC)
                == tweaked.view_fingerprint(SOURCE, Disambiguator.STATIC))

    def test_latency_table_changes_spec_view(self):
        config = PipelineConfig()
        assert (config.view_fingerprint(SOURCE, Disambiguator.SPEC, 2)
                != config.view_fingerprint(SOURCE, Disambiguator.SPEC, 6))

    def test_latency_irrelevant_to_static_view(self):
        config = PipelineConfig()
        assert (config.view_fingerprint(SOURCE, Disambiguator.STATIC, 2)
                == config.view_fingerprint(SOURCE, Disambiguator.STATIC, 6))

    def test_source_change_propagates(self):
        config = PipelineConfig()
        assert (config.view_fingerprint(SOURCE, Disambiguator.SPEC)
                != config.view_fingerprint(SOURCE + "\n", Disambiguator.SPEC))


class TestPassPipelineFingerprint:
    def test_cleanup_list_changes_every_view_kind(self):
        plain = PipelineConfig()
        cleaned = PipelineConfig(
            passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP))
        for kind in Disambiguator:
            assert (plain.view_fingerprint(SOURCE, kind)
                    != cleaned.view_fingerprint(SOURCE, kind)), kind

    def test_cleanup_order_matters(self):
        forward = PipelineConfig(
            passes=PassPipelineConfig(cleanup=("constfold", "dce")))
        reverse = PipelineConfig(
            passes=PassPipelineConfig(cleanup=("dce", "constfold")))
        assert (forward.view_fingerprint(SOURCE, Disambiguator.SPEC)
                != reverse.view_fingerprint(SOURCE, Disambiguator.SPEC))

    def test_observational_knobs_do_not_change_fingerprint(self):
        quiet = PipelineConfig(
            passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP))
        loud = PipelineConfig(
            passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP,
                                      validate=False,
                                      dump_after=("dce",)))
        assert (quiet.view_fingerprint(SOURCE, Disambiguator.SPEC)
                == loud.view_fingerprint(SOURCE, Disambiguator.SPEC))

    def test_compile_fingerprint_ignores_cleanup(self):
        # cleanup runs inside disambiguation; compiled artifacts are
        # shared across pass configurations
        plain = PipelineConfig()
        cleaned = PipelineConfig(
            passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP))
        assert (plain.compile_fingerprint(SOURCE)
                == cleaned.compile_fingerprint(SOURCE))

    def test_dump_after_bypasses_view_cache(self):
        store = ArtifactStore(root=None)
        pipe = Pipeline(PipelineConfig(
            passes=PassPipelineConfig(cleanup=DEFAULT_CLEANUP,
                                      dump_after=("dce",))), store)
        dumped = pipe.view("t", SOURCE, Disambiguator.SPEC)
        key = pipe.config.view_fingerprint(SOURCE, Disambiguator.SPEC)
        assert store.get("view", key) is None
        # a second call recomputes rather than serving a cached artifact
        again = pipe.view("t", SOURCE, Disambiguator.SPEC)
        assert again is not dumped


class TestTimingFingerprint:
    def test_machine_change(self):
        config = PipelineConfig()
        assert (config.timing_fingerprint(SOURCE, Disambiguator.SPEC,
                                        machine(5, 2))
                != config.timing_fingerprint(SOURCE, Disambiguator.SPEC,
                                           machine(7, 2)))

    def test_memory_latency_change(self):
        config = PipelineConfig()
        assert (config.timing_fingerprint(SOURCE, Disambiguator.NAIVE,
                                        machine(5, 2))
                != config.timing_fingerprint(SOURCE, Disambiguator.NAIVE,
                                           machine(5, 6)))


class TestEngineFingerprint:
    """Profile/view artifacts are keyed on the execution engine: a
    miscompiling engine must never poison reference-engine entries."""

    def test_profile_fingerprint_engine_sensitive(self):
        jit = PipelineConfig(engine="jit")
        interp = PipelineConfig(engine="interp")
        assert (jit.profile_fingerprint(SOURCE)
                != interp.profile_fingerprint(SOURCE))

    def test_view_fingerprint_engine_sensitive(self):
        jit = PipelineConfig(engine="jit")
        interp = PipelineConfig(engine="interp")
        assert (jit.view_fingerprint(SOURCE, Disambiguator.SPEC)
                != interp.view_fingerprint(SOURCE, Disambiguator.SPEC))

    def test_compile_fingerprint_engine_insensitive(self):
        # compilation never executes the program; compiled artifacts are
        # shared across engines
        assert (PipelineConfig(engine="jit").compile_fingerprint(SOURCE)
                == PipelineConfig(engine="interp")
                .compile_fingerprint(SOURCE))

    def test_unknown_engine_rejected_at_construction(self):
        import pytest
        with pytest.raises(ValueError, match="unknown execution engine"):
            PipelineConfig(engine="nonesuch")

    def test_engines_share_no_artifacts_in_one_store(self):
        store = ArtifactStore(root=None)
        jit = Pipeline(PipelineConfig(engine="jit"), store)
        interp = Pipeline(PipelineConfig(engine="interp"), store)
        jit_profile = jit.profile("t", SOURCE)
        interp_profile = interp.profile("t", SOURCE)
        # verified-equivalent engines: same observable profile...
        assert (jit_profile.profile.tree_counts
                == interp_profile.profile.tree_counts)
        # ...via distinct cache rows
        assert (store.get("profile", jit.config.profile_fingerprint(SOURCE))
                is not None)
        assert (jit.config.profile_fingerprint(SOURCE)
                != interp.config.profile_fingerprint(SOURCE))


class TestPinnedFingerprints:
    """The default configuration's content addresses of :data:`SOURCE`,
    pinned: existing disk caches and served ``fingerprint`` fields stay
    valid only while these digests do not move.  A deliberate change
    bumps ``PIPELINE_VERSION`` and re-pins them."""

    PINNED = {
        "compiled":
            "13ef9442b471d8be36b6b38ba85d82aeed17b3bf95cc94dc55bfaf1aa679979b",
        "profile":
            "567a6838f79ef8c6a0824f58feee42fac175aa9c97e9762de65b8a95e41c82e4",
        "view.naive":
            "1b1e2577f59d244969f47826047debdf694cadf12296bdb77389983c3ae117a7",
        "view.static":
            "618259283b954383d64855698b00b8b4225c9834cace326fee1b693aa51af8f1",
        "view.spec":
            "f068e7c190918682ca6d6bac47a0a0905caa1315cea0d9ef55726fc7f7288c91",
        "view.perfect":
            "ce59564972af56264a7e72b1757127103f038aff4a34ad791da0df643a7f756d",
        "timing":
            "51669864beac598d5b1ed2d9f8683a9b253313626e338a23ba3296d2f1a05777",
        "hwtime":
            "b20dfb50f572fe540b211d385ad8b8cacf15a391a9d741806844b5de9206b592",
    }

    def fingerprints(self, config):
        fps = {"compiled": config.compile_fingerprint(SOURCE),
               "profile": config.profile_fingerprint(SOURCE),
               "timing": config.timing_fingerprint(
                   SOURCE, Disambiguator.SPEC, machine(5, 6)),
               "hwtime": config.hw_timing_fingerprint(
                   SOURCE, Disambiguator.SPEC, hw_machine(4, 6))}
        for kind in Disambiguator:
            fps[f"view.{kind.value}"] = config.view_fingerprint(SOURCE, kind,
                                                                6)
        return fps

    def test_default_config_fingerprints_are_pinned(self):
        assert PIPELINE_VERSION == 3
        assert self.fingerprints(PipelineConfig()) == self.PINNED

    def test_pipeline_stores_under_the_pinned_keys(self):
        store = ArtifactStore(root=None)
        pipe = Pipeline(store=store)
        pipe.timing("t", SOURCE, Disambiguator.SPEC, machine(5, 6))
        for stage, name in (("compiled", "compiled"), ("profile", "profile"),
                            ("view", "view.spec"), ("timing", "timing")):
            artifact = store.get(stage, self.PINNED[name])
            assert artifact is not None, name
            assert artifact.fingerprint == self.PINNED[name]
