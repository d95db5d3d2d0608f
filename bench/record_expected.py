"""Record the inputs and outcomes the benchmark checks against in ``bench/expected.json``.

    python3 bench/record_expected.py

Run from the repository root at a commit whose outputs are known good.  It
stores:

- for verify-sweep, the digest of the report that
  ``intertwinor verify --suite all`` writes on the benchmark grid, and the
  digest and pass/fail/skip counts of every (suite, p, q) slice;
- for spectra-query, the request pool with the digest of every request's
  outcome.  Draws on which the recording commit crashes (a traceback instead
  of a record or a clean error) are left out of the pool and listed under
  ``left_out``, so that no benchmark request fails.

Torus-exact needs no record: its check is exact equality with zero.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from intertwinor import spectra  # noqa: E402
from intertwinor.spectra import BundleParams, Family, KTypeLabel  # noqa: E402
from tracing import NullTracer  # noqa: E402

POOL_SEED = 20160118
POOL_EVALS_PER_STRATUM = 300
POOL_TABLES_PER_STRATUM = 30
#: the target grid of the project: p, q <= 12, levels up to 32, orders up to 8
P_MAX = Q_MAX = 12
LEVEL_MAX = 32
R_MAX = 8
TABLE_LEVELS = 5
FAMILY_NAMES = {"coexact": ("coexact", "m1-delta"), "exact": ("exact", "m1-d"),
                "mixed": ("mixed", "m2")}


def cli_verify_report(grid: dict, path: Path) -> bytes:
    """The report file of ``intertwinor verify --suite all`` on ``grid``."""
    argv = ["verify", "--suite", "all", "--p-max", str(grid["p_max"]),
            "--q-max", str(grid["q_max"]), "--j-max", str(grid["j_max"]),
            "--r-max", str(grid["r_max"]), "-o", str(path)]
    code, _, err = workloads.invoke(argv, workloads.Capture())
    if code != 0:
        raise SystemExit(f"intertwinor verify failed on the benchmark grid: {err}")
    return path.read_bytes()


def record_verify(grid: dict) -> dict:
    """Slice records of one benchmark pass, checked against the CLI's own report."""
    sweep = workloads.VerifySweep(**grid)
    sweep.run_pass(NullTracer(), iter(range(1 << 30)))
    cli_bytes = cli_verify_report(grid, workloads.OUT_DIR / "verify-cli-report.jsonl")
    if workloads.digest(cli_bytes) != sweep.observed["report_sha256"]:
        raise SystemExit("joined slice reports differ from `intertwinor verify` output")
    if any(fail for *_, fail, _ in sweep.observed["slices"]):
        raise SystemExit("verify reports failures on the benchmark grid")
    return {"grid": grid, **sweep.observed}


def _draw_label(rng: random.Random, family: Family):
    """A bundle (p, q <= 12) and one existing (j', j <= 32) label of the family."""
    while True:
        p, q = rng.randint(2, P_MAX), rng.randint(2, Q_MAX)
        k = rng.randrange(min(p, q))
        a = rng.randint(max(0, k - (p - 1)), min(k, q - 1))
        params = BundleParams(p, q, k, a)
        for _ in range(50):
            jp, j = rng.randint(0, LEVEL_MAX), rng.randint(0, LEVEL_MAX)
            if spectra.ktype_exists(params, KTypeLabel(family, jp, j)):
                return params, jp, j


def _draw_r(rng: random.Random, mode: str) -> str:
    """Integer orders in exact mode; quarter steps up to 8 in float mode."""
    if mode == "exact":
        return str(rng.randint(1, R_MAX))
    return str(rng.randint(1, 4 * R_MAX) / 4)


def _crashed(outcome) -> bool:
    code, _, err = outcome
    return not (code == 0 or (code == 1 and err.startswith("Error: ")))


def record_pool(seed: int, evals: int, tables: int):
    """Per stratum, ``evals`` evals then ``tables`` tables that end cleanly."""
    rng = random.Random(seed)
    capture = workloads.Capture()
    pool, left_out = [], []
    for index, (_, fam, mode) in enumerate(workloads.STRATA):
        for command, count in (("eval", evals), ("table", tables)):
            kept = 0
            while kept < count:
                params, jp, j = _draw_label(rng, Family(fam))
                entry = [index, command, params.p, params.q, params.k, params.a,
                         _draw_r(rng, mode), rng.choice(FAMILY_NAMES[fam])]
                if command == "eval":
                    entry += [jp, j, None]
                else:
                    entry += [TABLE_LEVELS, TABLE_LEVELS, rng.choice(("csv", "jsonl"))]
                argv = workloads.pool_argv(entry + [None])
                outcome = workloads.invoke(argv, capture)
                if _crashed(outcome):
                    left_out.append(" ".join(argv) + " -> " + str(outcome[0]))
                    continue
                pool.append(entry + [workloads.outcome_digest(argv, outcome)])
                kept += 1
    return pool, left_out


def main() -> None:
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    pool, left_out = record_pool(POOL_SEED, POOL_EVALS_PER_STRATUM, POOL_TABLES_PER_STRATUM)
    verify_record = json.dumps(record_verify(workloads.VERIFY_GRID), indent=1)
    # one pool entry per line keeps the file small and its diffs readable
    pool_lines = ",\n  ".join(json.dumps(entry, separators=(",", ":")) for entry in pool)
    text = ('{\n"verify-sweep": ' + verify_record + ',\n'
            '"spectra-query": {\n "pool_seed": ' + str(POOL_SEED) + ',\n'
            ' "left_out": ' + json.dumps(left_out, indent=2) + ',\n'
            ' "pool": [\n  ' + pool_lines + '\n ]\n}\n}\n')
    json.loads(text)
    workloads.EXPECTED_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {workloads.EXPECTED_PATH}: {len(pool)} pool entries, "
          f"{len(left_out)} crashing draws left out")


if __name__ == "__main__":
    main()
