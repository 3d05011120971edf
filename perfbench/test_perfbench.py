"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import groupage  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_percentile_interpolates_between_closest_ranks():
    assert run.percentile([5, 1, 3, 2, 4], 0.5) == 3
    assert run.percentile([1, 2, 3, 4, 5], 0.9) == pytest.approx(4.6)
    assert run.percentile([1, 2, 3, 4, 5], 0.0) == 1
    assert run.percentile([1, 2, 3, 4, 5], 1.0) == 5
    assert run.percentile([7.5], 0.9) == 7.5
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def test_fail_frac_is_failed_over_attempted():
    assert run.fail_frac(53, 100) == 0.53
    assert run.fail_frac(0, 80013) == 0.0
    with pytest.raises(ValueError):
        run.fail_frac(0, 0)


def test_reference_scale_divides_the_reference_by_the_median_calibration():
    reference = run.CALIBRATION_REFERENCE_S
    assert run.reference_scale([4 * reference, 2 * reference, 0.1 * reference]) == 0.5
    assert run.reference_scale([reference]) == 1.0
    assert run.calibrate() > 0


def test_digests_keep_int_float_pairs_in_arrays_and_the_rest_as_is():
    digests = run.Digests()
    records = [(12, 0.5), "ValueError: boom", (3.0, 0.25), (0, 1, 2), (7, 2.0)]
    for record in records:
        digests.append(record)
    assert list(digests) == records
    assert len(digests) == 5 and len(digests.ints) == 2 and len(digests.others) == 3


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_child_spans():
    # outer [0, 10] calls inner [1, 3] and inner [4, 8]; inner calls leaf [5, 6]
    tracer = spans.Tracer(clock=ScriptedClock([0, 1, 3, 4, 5, 6, 8, 10]))
    outer = tracer.stats("optimize.optimal_group_size_updating")
    inner = tracer.stats("analytic.average_age")
    leaf = tracer.stats("analytic.expected_cycle_length")
    tracer.enter(outer)
    tracer.enter(inner)
    tracer.exit(inner, False)
    tracer.enter(inner)
    tracer.enter(leaf)
    tracer.exit(leaf, False)
    tracer.exit(inner, True)
    tracer.exit(outer, False)
    assert outer.self_s == 10 - 2 - 4
    assert inner.self_s == 2 + (4 - 1)
    assert leaf.self_s == 1
    assert (outer.calls, inner.calls, leaf.calls) == (1, 2, 1)
    metrics = tracer.metrics(passes=1)
    # a nested call inside the same layer adds no busy time
    assert metrics["analytic.busy_s"] == 2 + 4
    assert metrics["analytic.self_s"] == 6
    assert metrics["optimize.busy_s"] == 10
    assert metrics["analytic.errors"] == 1
    assert metrics["analytic.closed_form_s"] == 6


def test_instrumentation_patches_imported_names_and_restores_them():
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    original = groupage.optimize.validate_config
    with instrumentation.active():
        assert groupage.optimize.validate_config is not original
        assert groupage.cli.validate_config is groupage.model.validate_config
        result = groupage.optimal_group_size_updating(12, 0.1)
    assert groupage.optimize.validate_config is original
    assert result.optimal_k == groupage.optimal_group_size_updating(12, 0.1).optimal_k
    metrics = tracer.metrics(passes=1)
    assert metrics["optimize.calls"] == 1
    assert metrics["model.validate_config_calls"] == len(groupage.divisors(12))
    assert metrics["optimize.evals_per_call"] == len(groupage.divisors(12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    first = workloads.build_ops(workload, 7, "out")
    assert first == workloads.build_ops(workload, 7, "out")
    assert first != workloads.build_ops(workload, 8, "out")
    assert len(first) >= 100


def test_validate_outcomes_separate_program_failures_from_wrong_output():
    op = workloads.Op("cli", ("validate", "--n", "60", "--p", "0.426", "--k", "60", "--cycles", "1000", "--seeds", "0"))
    zero_variance = (
        "PASS: closed-form vs convolution-oracle: max relative error 2.256e-16\n"
        "SKIP: enumeration-oracle (needs n <= 20, got n=60)\n"
        "FAIL: simulation seed=0 age: estimate 62 vs 62 (3se = 0)\n"
        "PASS: simulation seed=0 mean_cycle: estimate 61 vs 61 (3se = 0)\n"
        "PASS: simulation seed=0 second_moment_cycle: estimate 3721 vs 3721 (3se = 0)\n"
        "PASS: simulation seed=0 mean_service: estimate 31.5 vs 31.5 (3se = 0)\n"
    )
    outcome = workloads.check("validate", [op], [(3, zero_variance, 0)])[0]
    assert outcome == workloads.Outcome(failed=True, wrong=False, label="zero-variance:age")
    assert workloads.check("validate", [op], [(0, zero_variance, 0)])[0].wrong
    assert workloads.check("validate", [op], ["ValueError: boom"])[0].wrong


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
