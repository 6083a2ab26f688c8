"""The tables of scripts/parity.py, checked without training anything.

Each run prints its lines under its own name, and each pair of lines the
script holds equal names lines that a run of the table prints. The script is
loaded from scripts/ as it is, without edits.
"""

import importlib.util
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"


def _load():
    spec = importlib.util.spec_from_file_location("parity_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _load()


def _problems(runs, same) -> list[str]:
    names = [run.name for run in runs]
    problems = [f"run {name} appears twice" for name in sorted(set(names)) if names.count(name) > 1]
    printed = {(run.name, artifact) for run in runs for artifact in run.artifacts}
    problems += [f"{' '.join(line)} is printed by no run"
                 for pair in same for line in pair if line not in printed]
    return problems


def test_parity_tables_are_consistent():
    assert _problems(parity.RUNS, parity.SAME) == []


def test_a_duplicated_run_name_is_caught():
    runs = (*parity.RUNS, parity.Run("mlp", "rigl", 0.5, "-resume"))
    assert _problems(runs, parity.SAME) == ["run mlp-rigl-s50-resume appears twice"]


def test_an_equality_pair_naming_an_unprinted_line_is_caught():
    # a resumed run prints its final.ckpt line alone
    same = ((("mlp-rigl-s50-resume", "final.ckpt-body"), ("mlp-rigl-s50", "final.ckpt-body")),)
    assert _problems(parity.RUNS, same) == ["mlp-rigl-s50-resume final.ckpt-body is printed by no run"]


def test_every_equality_pair_compares_two_runs():
    assert all(a[0] != b[0] and a[1] == b[1] for a, b in parity.SAME)


def test_importing_the_script_leaves_the_environment_alone():
    before = dict(os.environ)
    _load()
    assert dict(os.environ) == before
