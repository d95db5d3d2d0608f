"""The three workloads of the intertwinor benchmark.

Each workload is a closed loop with a single caller.  It builds its inputs
from the run seed, runs passes over them, checks every output against the
values recorded at the seed commit (``expected.json``) or against an exact
invariant, and lists the library calls one pass makes, so that the traced
run can replay them and time each function on its own.

The replay calls the library through its modules and never rebinds a
function: ``verify.run_diamond_checks`` picks its integer fast path by
identity with the ``spectra`` functions, so a wrapped function would switch
the suite to its much slower generic path and the run would measure a
different program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from intertwinor import arithmetic, blocks, cli, spectra, torus, verify
from intertwinor.arithmetic import IndeterminateError, is_integral
from intertwinor.spectra import (
    DIRECTIONS,
    BundleParams,
    DegenerateNormalizationError,
    Family,
    KTypeLabel,
)

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"

#: verify-sweep grid: the default grid's shape (p, q from 2, r from 1 to 4)
#: cut to low levels, so that one pass takes about 1.5 s instead of 70 s
VERIFY_GRID = {"p_max": 5, "q_max": 5, "j_max": 2, "r_max": 4}
#: torus-exact truncation; one pass over the nine (k, r) cases takes about 0.6 s
TORUS_M = 8
TORUS_CASES = tuple((k, r) for k in (0, 1, 2) for r in (1, 2, 3))
#: spectra-query requests per pass, drawn per stratum from the recorded pool
EVALS_PER_STRATUM = 120
TABLES_PER_STRATUM = 1
#: loop length of the reference kernel run between timed calls; about 0.3 ms
KERNEL_STEPS = 64

perf_counter = time.perf_counter


@dataclass
class Op:
    """One timed call into a layer during a pass, with its checked outcome."""

    name: str
    seconds: float
    #: the reference kernel's time around the call, see :class:`Clock`
    kernel: float
    items: int
    ok: bool
    request: bool = True
    skipped: int = 0


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def reference_kernel(steps: int = KERNEL_STEPS):
    """Fixed pure-Python work in the program's own style: Fraction arithmetic and dicts."""
    acc, counts = Fraction(0), {}
    for i in range(1, steps):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
        counts[i % 31] = counts.get(i % 31, 0) + i
    return acc


def kernel_seconds() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def reference_seconds(repeats: int) -> float:
    """Median of a few reference kernel runs: the machine's current speed."""
    return statistics.median(kernel_seconds() for _ in range(repeats))


class Clock:
    """Times the steps of one pass, each between two runs of the reference kernel.

    Calling it runs one step and returns its result, its time, and the mean
    time of the kernel runs just before and just after it: the machine's
    speed while the step ran.  Consecutive steps share the kernel run
    between them; the kernel runs outside the step's span.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.last = kernel_seconds()

    def __call__(self, name, rid, fn, *args):
        with self.tracer.span(name, rid):
            start = perf_counter()
            out = fn(*args)
            seconds = perf_counter() - start
        after = kernel_seconds()
        kernel, self.last = (self.last + after) / 2, after
        return out, seconds, kernel


# -- arithmetic calls made by the spectra formulas ---------------------------------

def _gamma_calls(calls: dict, xs, r) -> None:
    """Append the gamma-quotient calls a spectra formula makes at arguments xs."""
    if is_integral(r):
        r = int(r)
        for x in xs:
            calls["arithmetic.gamma_ratio"].append((x, r))
            calls["arithmetic.rising_factorial"].append((Fraction(x - r, 2), r))
    else:
        for x in xs:
            calls["arithmetic.gamma_ratio_numeric"].append((float(x), float(r)))


def _mult1_xs(pt):
    return (pt.Jp + pt.J + 1, pt.Jp - pt.J + 1)


def _mult2_xs(pt):
    return (pt.Jp + pt.J, pt.Jp + pt.J + 2, pt.Jp - pt.J, pt.Jp - pt.J + 2)


#: every replayed function: metric name -> (function, exceptions that are data)
REPLAYED = {
    "arithmetic.gamma_ratio": (arithmetic.gamma_ratio, ()),
    "arithmetic.rising_factorial": (arithmetic.rising_factorial, ()),
    "arithmetic.gamma_ratio_numeric": (arithmetic.gamma_ratio_numeric, ()),
    "spectra.ktype_exists": (spectra.ktype_exists, ()),
    "spectra.spectral_point": (spectra.spectral_point, ()),
    "spectra.mult1_eigenvalue": (spectra.mult1_eigenvalue, ()),
    "spectra.mult2_det": (spectra.mult2_det, ()),
    "spectra.normalized_eigenvalue": (spectra.normalized_eigenvalue,
                                      (DegenerateNormalizationError,)),
    "spectra.mult1_transition": (spectra.mult1_transition, (IndeterminateError,)),
    "spectra.mult2_transition": (spectra.mult2_transition, (IndeterminateError,)),
    "blocks.intertwinor_block": (blocks.intertwinor_block, (DegenerateNormalizationError,)),
    "blocks.laplace_data": (blocks.laplace_data, ()),
    "blocks.interface_constants": (blocks.interface_constants,
                                   (DegenerateNormalizationError,)),
    "blocks.interface_shifts": (blocks.interface_shifts, ()),
    "blocks.even_order_eigenvalue": (blocks.even_order_eigenvalue, ()),
    "blocks.even_order_block": (blocks.even_order_block, ()),
    "blocks.leading_symbol_polynomials": (blocks.leading_symbol_polynomials, ()),
}


def _empty_calls() -> dict:
    return {name: [] for name in REPLAYED}


# -- verify-sweep --------------------------------------------------------------------

class VerifySweep:
    """All five verify suites; one request is one suite on one (p, q) slice.

    Requests run in report order (suite, then p, then q), so the slice
    reports joined in request order are the bytes that
    ``intertwinor verify --suite all`` writes for the same grid.
    """

    name = "verify-sweep"
    #: requests of 1 to 100 ms outlast the machine's swings in speed, so the
    #: median ratio over the passes is the steadiest cost
    estimator = "median"

    def __init__(self, p_max: int, q_max: int, j_max: int, r_max: int, expected=None):
        self.j_max = j_max
        self.r_values = tuple(range(1, r_max + 1))
        self.full_grid = verify.GridSpec(p_max=p_max, q_max=q_max, j_max=j_max,
                                         r_values=self.r_values)
        self.slices = [(suite, p, q) for suite in verify.SUITES
                       for p in range(2, p_max + 1) for q in range(2, q_max + 1)]
        self.expected = expected
        self.observed = None
        self.report_path = OUT_DIR / "verify-sweep-report.jsonl"
        self.sizes = {"grid": {"p_max": p_max, "q_max": q_max, "j_max": j_max,
                               "r_max": r_max},
                      "requests_per_pass": len(self.slices)}

    def _slice_grid(self, p: int, q: int) -> verify.GridSpec:
        return verify.GridSpec(p_min=p, p_max=p, q_min=q, q_max=q, j_max=self.j_max,
                               r_values=self.r_values)

    def run_pass(self, tracer, ids):
        results, reports = [], []
        self.report_path.parent.mkdir(parents=True, exist_ok=True)
        start = perf_counter()
        with tracer.span("pass"):
            timed = Clock(tracer)
            for suite, p, q in self.slices:
                got, seconds, kernel = timed("verify." + suite, next(ids),
                                             verify.SUITES[suite], self._slice_grid(p, q))
                results.append((suite, seconds, kernel, verify.summarize(got)))
                reports.extend(got)
            _, write_seconds, write_kernel = timed("verify.write_report", None,
                                                   verify.write_report, reports,
                                                   self.report_path)
        wall = perf_counter() - start
        return wall, self._check(results, write_seconds, write_kernel)

    def _check(self, results, write_seconds, write_kernel):
        data = self.report_path.read_bytes()
        lines = data.splitlines(keepends=True)
        observed, at = [], 0
        for (suite, p, q), (*_, counts) in zip(self.slices, results):
            chunk = b"".join(lines[at:at + counts["total"]])
            at += counts["total"]
            observed.append([suite, p, q, digest(chunk), counts[verify.PASS],
                             counts[verify.FAIL], counts[verify.SKIP]])
        self.observed = {"report_sha256": digest(data), "slices": observed}
        want = self.expected or {"report_sha256": None, "slices": [None] * len(observed)}
        ops = [Op("verify." + suite, seconds, kernel, counts["total"],
                  got == exp and counts[verify.FAIL] == 0, skipped=counts[verify.SKIP])
               for (suite, seconds, kernel, counts), got, exp
               in zip(results, observed, want["slices"])]
        ops.append(Op("verify.write_report", write_seconds, write_kernel, 0,
                      self.observed["report_sha256"] == want["report_sha256"],
                      request=False))
        return ops

    def replay_calls(self) -> dict:
        """The spectra, blocks and arithmetic calls the five suites make.

        Each suite's calls into the lower layers are listed with their
        arguments; the diamond suite's integer fast path makes none, so the
        transition calls listed are those of its generic path.
        """
        calls = _empty_calls()
        j_max = self.j_max
        for params in verify.iter_bundles(self.full_grid):
            levels = [(jp, j) for jp in range(j_max + 1) for j in range(j_max + 1)]
            exists = {}
            # the existence sets the suites build: diamond's three families up
            # to j_max + 2, then interface, det and even-order up to j_max
            for fam, j_hi in ((Family.COEXACT, j_max + 2), (Family.EXACT, j_max + 2),
                              (Family.MIXED, j_max + 2), (Family.MIXED, j_max),
                              (Family.MIXED, j_max), (Family.MIXED, j_max),
                              (Family.COEXACT, j_max), (Family.EXACT, j_max)):
                for jp in range(j_hi + 1):
                    for j in range(j_hi + 1):
                        label = KTypeLabel(fam, jp, j)
                        calls["spectra.ktype_exists"].append((params, label))
                        if spectra.ktype_exists(params, label):
                            exists.setdefault(fam, set()).add((jp, j))
            mixed = exists.get(Family.MIXED, set())
            coexact = exists.get(Family.COEXACT, set())
            exact = exists.get(Family.EXACT, set())
            # diamond, generic path: one transition per direction and order
            for fam, transition in ((Family.COEXACT, "spectra.mult1_transition"),
                                    (Family.EXACT, "spectra.mult1_transition"),
                                    (Family.MIXED, "spectra.mult2_transition")):
                for jp, j in levels:
                    if (jp, j) in exists.get(fam, ()):
                        pt = spectra.spectral_point(params, jp, j)
                        for r in self.r_values:
                            for direction in DIRECTIONS:
                                calls[transition].append((pt, r, direction))
            # interface and det
            for jp, j in levels:
                if (jp, j) not in mixed:
                    continue
                pt = spectra.spectral_point(params, jp, j)
                calls["spectra.spectral_point"] += [(params, jp, j)] * 2
                calls["blocks.interface_constants"].append((params, j))
                try:
                    blocks.interface_constants(params, j)
                    interface = True
                except DegenerateNormalizationError:
                    interface = False
                if interface:
                    calls["blocks.interface_shifts"].append((params, pt))
                    calls["blocks.laplace_data"].append((params, pt))
                for r in self.r_values:
                    block_args = (params, pt, Fraction(r), 1)
                    calls["blocks.intertwinor_block"] += [block_args] * (1 + interface)
                    try:
                        blocks.intertwinor_block(*block_args)
                    except DegenerateNormalizationError:
                        continue
                    # det: its own gamma part, then the determinant formula
                    _gamma_calls(calls, (pt.Jp + pt.J + 2, pt.Jp - pt.J), r)
                    calls["spectra.mult2_det"].append((pt, r))
                    _gamma_calls(calls, _mult2_xs(pt), r)
            # even-order
            for jp, j in levels:
                if (jp, j) not in mixed | coexact | exact:
                    continue
                pt = spectra.spectral_point(params, jp, j)
                calls["spectra.spectral_point"].append((params, jp, j))
                for r in self.r_values:
                    for fam, here in ((Family.COEXACT, coexact), (Family.EXACT, exact)):
                        if (jp, j) in here:
                            calls["blocks.even_order_eigenvalue"].append((fam, params, pt, r))
                    if (jp, j) in mixed:
                        calls["blocks.even_order_block"].append((params, pt, r))
                        calls["spectra.mult2_det"].append((pt, r))
                        _gamma_calls(calls, _mult2_xs(pt), r)
            for r in self.r_values:
                for fam in (Family.COEXACT, Family.EXACT):
                    calls["blocks.leading_symbol_polynomials"].append((fam, params, r))
            # scalar reduction
            if params.k == 0:
                for jp, j in levels:
                    pt = spectra.spectral_point(params, jp, j)
                    calls["spectra.spectral_point"].append((params, jp, j))
                    for r in self.r_values:
                        for fam in (Family.EXACT, Family.MIXED, Family.COEXACT):
                            calls["spectra.ktype_exists"].append(
                                (params, KTypeLabel(fam, jp, j)))
                        calls["spectra.mult1_eigenvalue"].append((pt, r))
                        _gamma_calls(calls, _mult1_xs(pt), r)
                        if params.s not in (r, -r):
                            calls["spectra.normalized_eigenvalue"].append(
                                (Family.COEXACT, params, pt, r))
        return calls


# -- torus-exact -----------------------------------------------------------------------

class TorusExact:
    """Exact intertwining residuals; one request is one (k, r) at truncation M."""

    name = "torus-exact"
    #: requests of 30 to 100 ms: the median ratio, as for verify-sweep
    estimator = "median"

    def __init__(self, M: int, cases=TORUS_CASES):
        self.M = M
        self.cases = tuple(cases)
        self.sizes = {"M": M, "cases": [list(c) for c in self.cases],
                      "requests_per_pass": len(self.cases)}

    def run_pass(self, tracer, ids):
        results = []
        start = perf_counter()
        with tracer.span("pass"):
            timed = Clock(tracer)
            for k, r in self.cases:
                results.append(timed("torus.intertwining_residual", next(ids),
                                     torus.intertwining_residual, self.M, k, r, "exact"))
        wall = perf_counter() - start
        return wall, [Op("torus.intertwining_residual", seconds, kernel, res.columns,
                         res.exact_zero and res.columns > 0)
                      for res, seconds, kernel in results]

    def replay_calls(self) -> dict:
        """The gamma quotients that ``torus.spectral_operator`` evaluates."""
        calls = _empty_calls()
        span = range(-self.M, self.M + 1)
        for k, r in self.cases:
            for m in span:
                for n in span:
                    jp, jn = abs(m), abs(n)
                    if k == 1:
                        _gamma_calls(calls, (jp + jn + 2,), r)
                    else:
                        _gamma_calls(calls, (jp + jn + 1, jp - jn + 1), r)
        return calls

    def replay_phases(self, tracer) -> dict:
        """Assembly and spectral-operator time, and stored entries, per pass.

        Assembly is ``half_commutator_with_phi`` plus the 'P' and 'phi-mult'
        operators, the parts ``intertwining_residual`` builds before its
        column loop; nonzeros count the entries stored in the core, phi and
        spectral operators.
        """
        out = {"assembly": 0.0, "spectral_operator": 0.0, "nonzeros": 0}
        for k, r in self.cases:
            basis = torus.TorusBasis(self.M, k)
            with tracer.span("torus.assembly", "replay"):
                start = perf_counter()
                half = torus.half_commutator_with_phi(basis)
                p_op = torus.assemble("P", basis)
                phi = torus.assemble("phi-mult", basis)
                out["assembly"] += perf_counter() - start
            with tracer.span("torus.spectral_operator", "replay"):
                start = perf_counter()
                a_op = torus.spectral_operator(basis, r)
                out["spectral_operator"] += perf_counter() - start
            for op in (half - p_op, phi, a_op):
                out["nonzeros"] += sum(len(col) for col in op.columns.values())
        return out


# -- spectra-query -----------------------------------------------------------------------

#: (operator, family, mode) strata; every pass draws the same number from each
STRATA = tuple((op, fam, mode)
               for op, modes in (("normalized", ("exact", "float")), ("even-order", ("exact",)))
               for mode in modes
               for fam in ("coexact", "exact", "mixed"))


def pool_argv(entry) -> list:
    """The command line of a recorded pool entry.

    An entry is [stratum, command, p, q, k, a, r, family, jp, j, format,
    digest]; for a table, jp and j are the level maxima.
    """
    stratum, command, p, q, k, a, r, family, jp, j, fmt, _ = entry
    operator, _, mode = STRATA[stratum]
    argv = [command, "--p", str(p), "--q", str(q), "--k", str(k), "--a", str(a),
            "--r", r, "--family", family, "--operator", operator, "--mode", mode]
    if command == "eval":
        return argv + ["--jp", str(jp), "--j", str(j)]
    return argv + ["--jp-max", str(jp), "--j-max", str(j), "--format", fmt]


class Capture:
    """The stdout and stderr buffers that in-process commands write to.

    One pair is reused for every command: click caches a wrapper for each
    stdout object it sees and never frees it when the stream is a StringIO,
    so a fresh buffer per command would grow memory with every request.
    """

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()


def invoke(argv, capture: Capture):
    """Run one ``intertwinor`` command in process, as a user's shell would.

    Returns (exit code, stdout, stderr).  An uncaught exception is an outcome
    too: it can never match a recorded one, so it counts as a failure.
    """
    out, err = capture.out, capture.err
    for buf in (out, err):
        buf.seek(0)
        buf.truncate()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=list(argv), prog_name="intertwinor", standalone_mode=True)
        except SystemExit as stop:
            code = stop.code
        except Exception as exc:  # a crash never matches a recorded outcome
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def outcome_digest(argv, outcome) -> str:
    return digest(json.dumps([list(argv), *outcome]))


def records_emitted(argv, outcome) -> int:
    code, out, _ = outcome
    if code != 0:
        return 0
    lines = out.count("\n")
    return lines - 1 if argv[0] == "table" and "jsonl" not in argv else lines


def _parse_argv(argv) -> dict:
    opts = dict(zip(argv[1::2], argv[2::2]))
    fields = {"--p": "p", "--q": "q", "--k": "k", "--a": "a", "--jp": "jp", "--j": "j",
              "--jp-max": "jp_max", "--j-max": "j_max"}
    out = {name: int(opts[flag]) for flag, name in fields.items() if flag in opts}
    out.update(command=argv[0], family=Family.parse(opts["--family"]),
               operator=opts["--operator"], mode=opts["--mode"])
    out["r"] = cli._parse_r(opts["--r"],
                            out["mode"] if out["operator"] == "normalized" else "exact")
    return out


class SpectraQuery:
    """``eval`` and ``table`` commands through the CLI; one command is one request.

    The run seed draws, from every stratum of the recorded pool, the same
    number of evals and tables, and shuffles them into one request order.
    """

    name = "spectra-query"
    #: sub-millisecond requests fit between two kernel runs, so the fastest
    #: ratio over the passes is the steadiest cost
    estimator = "fastest"

    def __init__(self, seed: int, pool: list,
                 evals: int = EVALS_PER_STRATUM, tables: int = TABLES_PER_STRATUM):
        rng = random.Random(seed)
        chosen = []
        for index in range(len(STRATA)):
            for command, count in (("eval", evals), ("table", tables)):
                chosen += rng.sample([e for e in pool if e[0] == index and e[1] == command],
                                     count)
        rng.shuffle(chosen)
        self.requests = [(pool_argv(entry), entry[-1]) for entry in chosen]
        self.capture = Capture()
        self.sizes = {"pool": len(pool), "evals_per_stratum": evals,
                      "tables_per_stratum": tables, "strata": [list(s) for s in STRATA],
                      "requests_per_pass": len(self.requests)}

    def run_pass(self, tracer, ids):
        results = []
        start = perf_counter()
        with tracer.span("pass"):
            timed = Clock(tracer)
            for argv, _ in self.requests:
                results.append(timed("cli." + argv[0], next(ids), invoke, argv, self.capture))
        wall = perf_counter() - start
        return wall, [Op("cli." + argv[0], seconds, kernel, records_emitted(argv, outcome),
                         outcome_digest(argv, outcome) == want)
                      for (argv, want), (outcome, seconds, kernel)
                      in zip(self.requests, results)]

    def replay_calls(self) -> dict:
        """The library calls ``cli._eval_record`` makes for every record requested."""
        calls = _empty_calls()
        for argv, _ in self.requests:
            req = _parse_argv(argv)
            params = BundleParams(req["p"], req["q"], req["k"], req["a"])
            if req["command"] == "eval":
                cells = [(req["jp"], req["j"])]
            else:
                cells = [(jp, j) for jp in range(req["jp_max"] + 1)
                         for j in range(req["j_max"] + 1)]
            for jp, j in cells:
                label = KTypeLabel(req["family"], jp, j)
                calls["spectra.ktype_exists"].append((params, label))
                if spectra.ktype_exists(params, label):
                    _record_calls(calls, params, jp, j, req)
        return calls


def _record_calls(calls, params, jp, j, req) -> None:
    family, r = req["family"], req["r"]
    mixed = family is Family.MIXED
    pt = spectra.spectral_point(params, jp, j)
    calls["spectra.spectral_point"].append((params, jp, j))
    if req["operator"] == "even-order":
        if mixed:
            calls["blocks.even_order_block"].append((params, pt, r))
        else:
            calls["blocks.even_order_eigenvalue"].append((family, params, pt, r))
    elif mixed:
        calls["spectra.mult2_det"].append((pt, r))
        _gamma_calls(calls, _mult2_xs(pt), r)
        if req["mode"] == "exact":
            calls["blocks.intertwinor_block"].append((params, pt, Fraction(r), 1))
    else:
        calls["spectra.normalized_eigenvalue"].append((family, params, pt, r))
        if params.s not in (r, -r):
            calls["spectra.mult1_eigenvalue"].append((pt, r))
            _gamma_calls(calls, _mult1_xs(pt), r)


# -- construction ---------------------------------------------------------------------------

WORKLOADS = ("verify-sweep", "torus-exact", "spectra-query")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def build(name: str, seed: int):
    """The named workload with its inputs for ``seed``, checked against the record."""
    expected = load_expected()
    if name == "verify-sweep":
        return VerifySweep(**VERIFY_GRID, expected=expected["verify-sweep"])
    if name == "torus-exact":
        return TorusExact(TORUS_M)
    if name == "spectra-query":
        return SpectraQuery(seed, expected["spectra-query"]["pool"])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
