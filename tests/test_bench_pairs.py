"""scripts/bench_pairs.py: the per-metric verdict against a benchmark bound."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("better, parent, change, want", [
    # medians 100 vs 89: 11% worse, past a 10% bound
    ("higher", [99, 100, 101], [88, 89, 90], "worse"),
    ("lower", [99, 100, 101], [110, 111, 112], "worse"),
    # 9% worse, within the bound, and a tight parent
    ("higher", [99, 100, 101], [90, 91, 92], "no worse"),
    ("lower", [99, 100, 101], [108, 109, 110], "no worse"),
    # a parent spread (q1 85, q3 115) wider than the bound cannot show
    # the change is within it ...
    ("higher", [70, 100, 130], [96, 100, 104], "unresolved"),
    ("lower", [70, 100, 130], [96, 100, 104], "unresolved"),
    # ... unless every change run beats every parent run
    ("higher", [70, 100, 130], [131, 140, 150], "no worse"),
    ("lower", [70, 100, 130], [50, 60, 69], "no worse"),
    # a change past the bound is worse however wide the parent's spread
    ("higher", [70, 100, 130], [60, 70, 80], "worse"),
])
def test_verdict_reads_each_metric_against_its_bound(better, parent, change, want):
    assert bench_pairs.verdict(better, 0.1, parent, change) == want


def test_a_run_gives_its_result_and_the_machine_figures_before_it():
    stdout = (
        "perfbench: warming up\n"
        '{"machine": {"reference_step_ms": 2.5, "unscaled_items_per_s": 580.0, '
        '"unscaled_setup_s": 0.7}}\n'
        '{"correct": true, "attempted": 9, "failed": 0, '
        '"metrics": {"items_per_s": {"value": 637.0, "unit": "items/s"}}}\n')
    result, machine = bench_pairs.parse_output(stdout)
    assert result["correct"] is True and result["metrics"]["items_per_s"]["value"] == 637.0
    assert machine == {"reference_step_ms": 2.5, "unscaled_items_per_s": 580.0}
    # a run without the machine line still gives its result
    assert bench_pairs.parse_output(stdout.splitlines()[-1]) == (result, {})
    # a last line that is no result object gives none
    assert bench_pairs.parse_output(stdout.rsplit("\n", 2)[0])[0] is None
    assert bench_pairs.parse_output("") == (None, {})
