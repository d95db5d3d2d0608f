"""The intertwinor benchmark: one workload per run, from a single process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.  With
``--trace 0`` the run prints every end-to-end metric, with ``--trace 1``
every per-layer metric, as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The line before it carries the run metadata.  Results and spans are also
written under ``bench/out``.  See ``bench/README.md`` for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_SAMPLES = 7
#: reference kernel runs after each set-up sample, and around each replayed
#: batch; their median gives the machine's speed
REFERENCE_RUNS = 9
#: samples that must lie beyond the reported tail latency: at least this many,
#: and at least this share of them, so the tail of a long request list sits
#: where its requests are dense and not on one request's time
TAIL_BEYOND = 10
TAIL_SHARE = 0.05
#: fewest measured passes per tracer, however long they take
MIN_PASSES = 3
#: the reference kernel's fastest time on the machine the sizes were picked
#: on; a time measured while the kernel took k seconds is reported as
#: time * REFERENCE_S / k, which takes out the shared machine's swings in speed
REFERENCE_S = 0.29e-3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)

#: a fresh interpreter builds the inputs, says so, then times the reference
#: kernel itself: a kernel timed in the parent can run on another CPU
_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
          "import intertwinor, intertwinor.cli, workloads; "
          "workloads.build(sys.argv[3], int(sys.argv[4])); print('ready', flush=True); "
          f"print(workloads.reference_seconds({REFERENCE_RUNS}))")


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in the order they are printed."""
    from workloads import REPLAYED
    from intertwinor import verify

    out = []
    for name in REPLAYED:
        out += [(name + ".us_per_call", "us"), (name + ".calls", "count")]
    for suite in verify.SUITES:
        out += [(f"verify.{suite}.s", "s"), (f"verify.{suite}.points", "count"),
                (f"verify.{suite}.skipped", "count"),
                (f"verify.{suite}.us_per_point", "us")]
    out += [("verify.write_report.s", "s"),
            ("torus.assembly.s", "s"), ("torus.spectral_operator.s", "s"),
            ("torus.residual.s", "s"), ("torus.columns", "count"),
            ("torus.nonzeros", "count"), ("torus.us_per_column", "us"),
            ("cli.eval.us_per_call", "us"), ("cli.eval.calls", "count"),
            ("cli.table.us_per_row", "us"), ("cli.table.rows", "count")]
    return out


# -- run metadata ------------------------------------------------------------------------

def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- measurement --------------------------------------------------------------------------

def time_setup(name, seed):
    """Seconds from starting a fresh interpreter to having the inputs built.

    Each sample is brought to reference speed by the reference kernel timed
    in that interpreter right after it built the inputs.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, str(SRC), str(BENCH), name,
                               str(seed)], stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            seconds = time.perf_counter() - start
            reference = probe.stdout.readline()
        if probe.returncode != 0 or ready != "ready\n":
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        samples.append(at_reference_speed(seconds, float(reference)))
    return samples


def at_reference_speed(seconds, kernel):
    """A time measured while the reference kernel took ``kernel`` seconds, at reference speed."""
    return seconds * REFERENCE_S / kernel


#: how a workload turns a step's ratios over the passes into the step's cost
ESTIMATORS = {"fastest": min, "median": statistics.median}


class Tally:
    """What a run keeps of its passes: every step's ratio in every pass.

    Every step of a pass (a request, or another timed call such as writing
    the report) is timed between two runs of the reference kernel, and the
    step's time relative to theirs hardly depends on how fast the shared
    machine is at that moment.  The workload's estimator (see ESTIMATORS)
    turns a step's ratios into its cost.
    """

    def __init__(self, estimator):
        self.estimate = ESTIMATORS[estimator]
        self.ops = None
        self.ratios = None
        self.kernels = []
        self.walls = []
        self.attempted = 0
        self.failed = 0

    def add(self, wall, ops, measured=True):
        self.attempted += len(ops)
        self.failed += sum(not op.ok for op in ops)
        if not measured:
            return
        self.walls.append(wall)
        self.kernels.append(statistics.median(op.kernel for op in ops))
        if self.ratios is None:
            self.ops, self.ratios = ops, [array.array("d") for _ in ops]
        for ratios, op in zip(self.ratios, ops):
            ratios.append(op.seconds / op.kernel)

    def pass_seconds(self):
        """One pass, kernel runs included, at reference speed."""
        return REFERENCE_S * self.estimate([w / k for w, k in zip(self.walls, self.kernels)])

    def step_ops(self):
        """The steps of one pass, each at its estimated time at reference speed."""
        return [dataclasses.replace(op, seconds=REFERENCE_S * self.estimate(ratios))
                for op, ratios in zip(self.ops, self.ratios)]


def measure(workload, tracers, seconds, ids):
    """Warm up with one pass, then cycle passes through ``tracers`` for ``seconds``.

    Returns one :class:`Tally` per tracer; the warm-up pass counts only
    towards attempted and failed.
    """
    from tracing import NullTracer

    tallies = [Tally(workload.estimator) for _ in tracers]
    tallies[0].add(*workload.run_pass(NullTracer(), ids), measured=False)
    end = time.perf_counter() + seconds
    passes = 0
    while time.perf_counter() < end or passes < MIN_PASSES * len(tracers):
        which = passes % len(tracers)
        tallies[which].add(*workload.run_pass(tracers[which], ids))
        passes += 1
    return tallies


def _run_meta(tally):
    return {"passes": len(tally.walls), "pass_wall_s": tally.walls,
            "pass_spread": _spread(tally.walls), "pass_kernel_s": tally.kernels,
            "kernel_spread": _spread(tally.kernels)}


def end_to_end(workload, seconds, ids, meta):
    from tracing import NullTracer

    setup = time_setup(workload.name, meta["seed"])
    (tally,) = measure(workload, [NullTracer()], seconds, ids)
    ops = tally.step_ops()
    latency = sorted(op.seconds for op in ops if op.request)
    n = len(latency)
    beyond = max(TAIL_BEYOND, math.ceil(TAIL_SHARE * n))
    tail_at = n - 1 - beyond if n > beyond else n - 1
    wall = sum(op.seconds for op in ops)
    meta.update(_run_meta(tally), setup_samples_s=setup,
                latency_tail={"percentile": 100.0 * (tail_at + 1) / n, "samples": n,
                              "beyond": n - 1 - tail_at})
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": sum(op.items for op in ops if op.request) / wall,
        "latency_p50_ms": 1e3 * statistics.median(latency),
        "latency_tail_ms": 1e3 * latency[tail_at],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - tally.failed / tally.attempted,
    }
    return [tally], {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _pass_layers(ops):
    """Per-layer numbers from the steps of one pass, each at its estimated time."""
    from intertwinor import verify

    def select(name):
        chosen = [op for op in ops if op.name == name]
        return (sum(op.seconds for op in chosen), sum(op.items for op in chosen),
                sum(op.skipped for op in chosen), len(chosen))

    out = {}
    for suite in verify.SUITES:
        secs, points, skipped, _ = select("verify." + suite)
        out.update({f"verify.{suite}.s": secs, f"verify.{suite}.points": points,
                    f"verify.{suite}.skipped": skipped,
                    f"verify.{suite}.us_per_point": 1e6 * secs / points if points else 0.0})
    out["verify.write_report.s"] = select("verify.write_report")[0]
    secs, columns, _, _ = select("torus.intertwining_residual")
    out.update({"torus.intertwining_residual.s": secs, "torus.columns": columns,
                "torus.us_per_column": 1e6 * secs / columns if columns else 0.0})
    secs, _, _, calls = select("cli.eval")
    out.update({"cli.eval.us_per_call": 1e6 * secs / calls if calls else 0.0,
                "cli.eval.calls": calls})
    secs, rows, _, _ = select("cli.table")
    out.update({"cli.table.us_per_row": 1e6 * secs / rows if rows else 0.0,
                "cli.table.rows": rows})
    return out


def replay(workload, tracer):
    """Time every listed library call once, one batch per function.

    Each batch is brought to reference speed by the median of a few kernel
    runs before it and after it.
    """
    from workloads import REPLAYED, reference_seconds

    calls = workload.replay_calls()
    out = {}
    with tracer.span("replay", "replay"):
        for name, (fn, data_errors) in REPLAYED.items():
            args_list = calls[name]
            before = reference_seconds(REFERENCE_RUNS)
            with tracer.span(name, "replay"):
                start = time.perf_counter()
                for args in args_list:
                    try:
                        fn(*args)
                    except data_errors:
                        pass
                secs = time.perf_counter() - start
            secs = at_reference_speed(secs, (before + reference_seconds(REFERENCE_RUNS)) / 2)
            out[name + ".us_per_call"] = 1e6 * secs / len(args_list) if args_list else 0.0
            out[name + ".calls"] = len(args_list)
        phases = {"assembly": 0.0, "spectral_operator": 0.0, "nonzeros": 0}
        kernel = REFERENCE_S
        if hasattr(workload, "replay_phases"):
            before = reference_seconds(REFERENCE_RUNS)
            phases = workload.replay_phases(tracer)
            kernel = (before + reference_seconds(REFERENCE_RUNS)) / 2
    out.update({"torus.assembly.s": at_reference_speed(phases["assembly"], kernel),
                "torus.spectral_operator.s": at_reference_speed(phases["spectral_operator"],
                                                                kernel),
                "torus.nonzeros": phases["nonzeros"]})
    return out


def per_layer(workload, seconds, ids, meta):
    """Alternate untraced and traced passes, then replay the library calls.

    The end-to-end figures come from ``--trace 0`` runs; here the untraced
    passes serve only to measure the tracing overhead.
    """
    from tracing import NullTracer, Tracer

    tracer = Tracer()
    untraced, traced = measure(workload, [NullTracer(), tracer], seconds, ids)
    start = time.perf_counter()
    values = replay(workload, tracer)
    replay_s = time.perf_counter() - start
    values.update(_pass_layers(traced.step_ops()))
    values["torus.residual.s"] = (values.pop("torus.intertwining_residual.s")
                                  - values["torus.assembly.s"]
                                  - values["torus.spectral_operator.s"]
                                  if values["torus.columns"] else 0.0)
    meta.update(_run_meta(traced), replay_s=replay_s, spans=len(tracer.spans),
                trace_overhead_s=traced.pass_seconds() - untraced.pass_seconds())
    return [untraced, traced], tracer, {name: {"value": values[name], "unit": unit}
                                        for name, unit in per_layer_metrics()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "intertwinor" / "__init__.py").is_file():
        print(f"bench: no intertwinor sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import intertwinor
    import workloads

    if Path(intertwinor.__file__).resolve().parent != SRC / "intertwinor":
        print(f"bench: imported intertwinor from {intertwinor.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.build(args.workload, args.seed)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": sys.version.split()[0],
            "git_sha": _git_sha(), "sizes": workload.sizes}
    ids = iter(range(1 << 62))
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tallies, tracer, metrics = per_layer(workload, args.seconds, ids, meta)
        tracer.dump(f"{stem}.spans.jsonl")
    else:
        tallies, metrics = end_to_end(workload, args.seconds, ids, meta)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    meta.update(attempted=attempted, failed=failed, fail_share=failed / attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    Path(f"{stem}.json").write_text(json.dumps({"meta": meta, **result}, indent=1),
                                         encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
