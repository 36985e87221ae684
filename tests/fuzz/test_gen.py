"""Generator surface: parameter validation, sampling coverage, and the
workload-registry hygiene contract."""

import dataclasses

import pytest

from repro.fuzz import FuzzUsageError, fuzz_stats
from repro.fuzz.gen import (
    CALL_SHAPES,
    LOCK_DISCIPLINES,
    GenParams,
    generate,
    registered,
    sample_params,
    scaled,
    synthetic_workload,
    validate_params,
)
from repro.workloads import ALL


class TestParams:
    def test_defaults_are_valid(self):
        validate_params(GenParams(seed=0))

    @pytest.mark.parametrize("bad", [
        {"events": 0},
        {"load_density": 1.5},
        {"store_density": -0.1},
        {"alias_depth": 9},
        {"loop_nesting": 0},
        {"lock_discipline": "sometimes"},
        {"threads": 3},
        {"call_shape": "spaghetti"},
        {"spec": "not.a.spec"},
    ])
    def test_out_of_range_params_raise(self, bad):
        with pytest.raises(FuzzUsageError):
            validate_params(dataclasses.replace(GenParams(seed=0), **bad))

    def test_scaled_overrides_events(self):
        params = sample_params(5)
        assert scaled(params, 123).events == 123


class TestSampling:
    def test_sampled_params_always_valid(self):
        for seed in range(50):
            validate_params(sample_params(seed))

    def test_sampling_covers_the_parameter_space(self):
        """200 sampled vectors must between them hit every lock
        discipline, every call shape, both thread counts, and the
        escape trick — coverage of the adversarial surface is the
        point of the firehose."""
        sampled = [sample_params(seed) for seed in range(200)]
        assert {p.lock_discipline for p in sampled} == set(LOCK_DISCIPLINES)
        assert {p.call_shape for p in sampled} == set(CALL_SHAPES)
        assert {p.threads for p in sampled} == {1, 2}
        assert any(p.escape_trick for p in sampled)
        assert len({p.spec for p in sampled}) == 3

    def test_events_override_changes_only_events(self):
        """An ``--events`` override must not shift the rest of the
        sampled vector — a find's repro script embeds the sampled
        events value and has to regenerate the same program."""
        for seed in range(20):
            free = sample_params(seed)
            assert sample_params(seed, events=free.events) == free
            overridden = sample_params(seed, events=123)
            assert dataclasses.replace(overridden, events=free.events) == free

    def test_escape_trick_requires_two_threads(self):
        for seed in range(200):
            params = sample_params(seed)
            if params.escape_trick:
                assert params.threads == 2


class TestRegistryHygiene:
    def test_generation_does_not_touch_the_registry(self):
        before = dict(ALL)
        generate(sample_params(0, events=300))
        synthetic_workload(sample_params(0, events=300))
        assert ALL == before

    def test_registered_context_manager_cleans_up(self):
        before = dict(ALL)
        with registered(sample_params(1, events=300)) as workload:
            assert workload.name in ALL
            assert ALL[workload.name] is workload
        assert ALL == before

    def test_synthetic_workload_counts_modules_generated(self):
        before = fuzz_stats()["modules_generated"]
        synthetic_workload(sample_params(3, events=300))
        with registered(sample_params(4, events=300)):
            pass
        assert fuzz_stats()["modules_generated"] == before + 2

    def test_synthetic_workload_is_fuzz_suite(self):
        workload = synthetic_workload(sample_params(2, events=300))
        assert workload.suite == "fuzz"
        assert workload.name.startswith("fuzz-s2-")
