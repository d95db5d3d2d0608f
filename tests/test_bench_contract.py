"""The library names that the benchmark in ``bench/`` calls, resolved and run at tiny size.

The benchmark builds what it runs from ``src/``, but tier-1 collects only
``tests/``: without this file a deletion in ``src/`` that breaks
``bench/workloads.py`` would still pass here.  The bench modules are loaded
from their files, unchanged; the one verify-sweep pass writes its report
under pytest's ``tmp_path``.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.fixture(scope="module")
def listed_calls():
    """Every call the three replays list, merged by metric name."""
    pool = workloads.load_expected()["spectra-query"]["pool"]
    replays = (workloads.VerifySweep(p_max=3, q_max=3, j_max=1, r_max=2),
               workloads.TorusExact(3, cases=((0, 1), (1, 2))),
               workloads.SpectraQuery(0, pool, evals=1, tables=0))
    calls = {name: [] for name in workloads.REPLAYED}
    for replay in replays:
        for name, args in replay.replay_calls().items():
            calls[name] += args
    return calls


def test_every_replayed_function_runs(listed_calls):
    for name, (fn, data_errors) in workloads.REPLAYED.items():
        assert listed_calls[name], f"no call listed for {name}"
        try:
            fn(*listed_calls[name][0])
        except data_errors:
            pass


def test_torus_phases_replay():
    phases = workloads.TorusExact(3, cases=((0, 1), (1, 2), (2, 3))).replay_phases(
        tracing.NullTracer())
    assert phases["nonzeros"] > 0
    assert phases["assembly"] > 0 and phases["spectral_operator"] > 0


def test_torus_pass_checks_columns():
    wall, ops = workloads.TorusExact(3, cases=((0, 1), (1, 2))).run_pass(
        tracing.NullTracer(), iter(range(10)))
    assert wall > 0
    assert [op.ok for op in ops] == [True, True]
    assert [op.items for op in ops] == [9, 18]


def test_torus_pass_at_the_bench_size():
    # one torus-exact pass at the bench's own truncation and (k, r) cases:
    # M = 8 and k, r in {0, 1, 2} x {1, 2, 3}, so every column of the 13 x 13
    # interior modes is checked, twice as many at k = 1
    wall, ops = workloads.build("torus-exact", 0).run_pass(tracing.NullTracer(), itertools.count())
    assert [op.ok for op in ops] == [True] * 9
    assert [op.items for op in ops] == [169] * 3 + [338] * 3 + [169] * 3


def test_verify_sweep_pass_matches_the_record(tmp_path):
    # one bench pass of the five suites against the slice digests and the
    # report sha256 in bench/expected.json
    sweep = workloads.build("verify-sweep", 0)
    sweep.report_path = tmp_path / "verify-sweep-report.jsonl"
    wall, ops = sweep.run_pass(tracing.NullTracer(), itertools.count())
    assert wall > 0
    assert len(ops) == 81
    assert [op.name for op in ops if not op.ok] == []
