"""Fast self-test of the benchmark at tiny sizes: ``python3 -m pytest -q bench/test_bench.py``."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import record_expected  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from intertwinor import torus  # noqa: E402
from tracing import NullTracer  # noqa: E402

TINY_GRID = {"p_max": 3, "q_max": 3, "j_max": 1, "r_max": 2}


def _tiny_verify():
    sweep = workloads.VerifySweep(**TINY_GRID)
    sweep.run_pass(NullTracer(), iter(range(100)))
    sweep.expected = sweep.observed
    return sweep


def _tiny(name, seed=1):
    if name == "verify-sweep":
        return _tiny_verify()
    if name == "torus-exact":
        return workloads.TorusExact(4, cases=((0, 1), (1, 2)))
    return workloads.SpectraQuery(seed, workloads.load_expected()["spectra-query"]["pool"],
                                  evals=2, tables=1)


def _main(monkeypatch, capsys, name, trace, workload=None):
    monkeypatch.setattr(workloads, "build", lambda n, seed: workload or _tiny(n, seed))
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(monkeypatch, capsys, name, trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    result = _main(monkeypatch, capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_digest_raises_fail_share(monkeypatch, capsys):
    sweep = _tiny_verify()
    sweep.expected["slices"][0][3] = "0" * 16
    result = _main(monkeypatch, capsys, "verify-sweep", 0, sweep)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1

    query = _tiny("spectra-query")
    argv, _ = query.requests[0]
    query.requests[0] = (argv, "0" * 16)
    result = _main(monkeypatch, capsys, "spectra-query", 0, query)
    assert not result["correct"] and result["failed"] >= 1


def test_nonzero_torus_residual_raises_fail_share(monkeypatch, capsys):
    def off_by_a_little(M, k, r, mode="exact", margin=2):
        return torus.ResidualResult(k=k, r=r, M=M, mode=mode, residual=1e-12, columns=9)

    monkeypatch.setattr(torus, "intertwining_residual", off_by_a_little)
    result = _main(monkeypatch, capsys, "torus-exact", 0)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_seed_changes_only_spectra_query_inputs():
    one, two = (workloads.build("spectra-query", seed) for seed in (1, 2))
    assert one.requests != two.requests
    assert workloads.build("spectra-query", 1).requests == one.requests
    for name, inputs in (("verify-sweep", lambda w: w.slices), ("torus-exact", lambda w: w.cases)):
        assert inputs(workloads.build(name, 1)) == inputs(workloads.build(name, 2))


def test_joined_reports_equal_cli_verify_output():
    sweep = _tiny_verify()
    cli_bytes = record_expected.cli_verify_report(
        TINY_GRID, workloads.OUT_DIR / "verify-cli-tiny.jsonl")
    assert sweep.report_path.read_bytes() == cli_bytes
