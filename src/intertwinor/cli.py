"""Command-line front end: single evaluations, grid tables, verification, torus runs.

Output is deterministic: records echo their full inputs, exact values are
serialized as num/den strings (never floats), poles as "pole", and float-mode
values in the shortest round-trip form (or at a requested precision).  The
``verify`` and ``torus`` commands exit 0 exactly when everything passes, so
they double as CI gates; neither passes vacuously, as ``verify`` fails a
suite with no passing record and ``torus`` a run that checked no column.
Two environment variables are read: INTERTWINOR_OUTDIR, which prefixes
relative output paths, and click's _INTERTWINOR_COMPLETE, which turns a run
into shell completion (``_INTERTWINOR_COMPLETE=bash_source intertwinor``
prints a bash completion script).
"""

from __future__ import annotations

import csv
import errno
import io
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional

import click
from click.core import ParameterSource, augment_usage_errors
from click.exceptions import Exit
from click.utils import PacifyFlushWrapper, _detect_program_name

from . import blocks, spectra, torus, verify
from .arithmetic import POLE, IndeterminateError, format_fraction, serialize
from .spectra import (
    FAMILY_ALIASES,
    BundleParams,
    DegenerateNormalizationError,
    Family,
)

TABLE_HEADER = ("p", "q", "k", "a", "jp", "j", "r", "family", "operator",
                "s", "Jp", "J", "value", "coeff", "radicand", "trace", "det")
#: the largest |r| on the exact path, whose cost grows with |r|
MAX_EXACT_ORDER = 256
#: the largest torus truncation M; the residual's work grows like M^2, one block
#: per interior class (|m|, |n|) and one visit per neighbour pair of a quarter-plane
MAX_TORUS_M = 256
#: the most cells (jp_max + 1)(j_max + 1) a table may span; it holds every row
#: before writing, and a 256 x 256 table takes about a second and 80-100 MB
MAX_TABLE_CELLS = 2**16
#: the most processed option values one request command keeps; later new texts
#: are processed and not stored, so a script that sweeps an integer stays bounded
MAX_KNOWN_VALUES = 2**12
#: integer options take at most the signed 64-bit range that records can encode;
#: each is a click range, so its help line states what it accepts
INT64_MAX = 2**63 - 1
INT64 = click.IntRange(-2**63, INT64_MAX)
#: what evaluating a bad point or order raises (ValueErrors for nonexistent labels
#: and degenerate normalizations, ArithmeticErrors for overflows, torus poles and
#: 0/0); each becomes an ``Error:`` line
_EVAL_ERRORS = (ValueError, ArithmeticError)


def _resolve_out(path: Optional[str]) -> Optional[Path]:
    if path is None:
        return None
    p = Path(path)
    outdir = os.environ.get("INTERTWINOR_OUTDIR")
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    return p


def _open_out(out: Path):
    """Open an output path for binary writing, creating its directory.

    A path that cannot be written (a directory, or a file where a directory
    is needed) is an ``Error:`` line that names it.
    """
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        return open(out, "wb")
    except OSError as err:
        raise click.ClickException(f"cannot write {out}: {err}") from None


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with _open_out(out) as fh:
            fh.write(text.encode())


def _json_line(record: dict) -> str:
    return verify.encode(record).decode() + "\n"


def _parse_r(text: str, mode: str):
    """Float mode accepts any finite real; exact mode and the even-order
    operator (``mode="even-order"``) accept integers only.

    Integral orders always route to the exact evaluation path, even in float
    mode, where the separate numeric gammas would sit on spurious poles.  The
    exact path accepts |r| <= MAX_EXACT_ORDER.
    """
    if mode != "float":
        try:
            value = int(text)
        except ValueError:
            try:
                value = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise click.BadParameter(f"could not parse r={text!r}")
            if value.denominator != 1:
                raise click.BadParameter(
                    f"even-order operators need an integer r, got {text}" if mode == "even-order"
                    else f"exact mode requires integer r, got {text}; use --mode float")
            value = value.numerator
    else:
        try:
            value = float(Fraction(text)) if "/" in text else float(text)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise click.BadParameter(f"could not parse r={text!r}")
        if not math.isfinite(value):
            raise click.BadParameter(f"r must be finite, got r={text!r}")
        if not value.is_integer():
            return value
    if abs(value) > MAX_EXACT_ORDER:
        raise click.BadParameter(
            f"integer orders need |r| <= {MAX_EXACT_ORDER}, got r={text}")
    return int(value)


def _bundle(p: int, q: int, k: int, a: int) -> BundleParams:
    try:
        return BundleParams(p, q, k, a)
    except ValueError as err:
        raise click.ClickException(str(err))


def _fmt_float(x: float, precision: int) -> str:
    return repr(x) if precision >= 17 else format(x, f".{precision}g")


def _fmt_scalar(x, precision: int) -> str:
    """A value's record string, with a float at ``precision`` digits."""
    return _fmt_float(x, precision) if isinstance(x, float) else serialize(x)


def _record_head(params: BundleParams, r, family: Family, operator: str, mode: str) -> dict:
    """The inputs that every eval and table record of one command starts with."""
    return {
        "p": params.p, "q": params.q, "k": params.k, "a": params.a,
        "r": str(r), "family": family.value, "operator": operator, "mode": mode,
        "s": format_fraction(params.s),
    }


def _point_head(head: dict, jp: int, j: int, pt: spectra.SpectralPoint) -> dict:
    """A new record: the command's head plus the levels and the spectral point."""
    return {**head, "jp": jp, "j": j, "Jp": format_fraction(pt.Jp), "J": format_fraction(pt.J)}


def _eval_record(params: BundleParams, jp: int, j: int, r, family: Family,
                 operator: str, mode: str, precision: int) -> dict:
    pt = spectra.spectral_point(params, jp, j, family)
    record = _point_head(_record_head(params, r, family, operator, mode), jp, j, pt)
    record.update(_point_values(params, pt, r, family, operator, mode, precision))
    return record


def _point_values(params: BundleParams, pt: spectra.SpectralPoint, r, family: Family,
                  operator: str, mode: str, precision: int) -> dict:
    """The values of an eval or table record at an existing label."""
    if operator == "even-order":
        if family is Family.MIXED:
            block = blocks.even_order_block(params, pt, r)
            return {"trace": format_fraction(block.trace), "det": format_fraction(block.det)}
        value = blocks.even_order_eigenvalue(family, params, pt, r)
        return {"value": format_fraction(value), "zero": value == 0}
    if family is Family.MIXED:
        det = spectra.mult2_det(pt, r)
        values = {"det": _fmt_scalar(det, precision), "pole": det is POLE}
        if mode == "exact":
            try:
                block = blocks.intertwinor_block(params, pt, r, 1)
                values["trace_unit_seed"] = format_fraction(block.trace)
            except DegenerateNormalizationError as err:
                values["trace_unit_seed"] = f"degenerate: {err}"
            try:
                seed_squared = serialize(blocks.block_scale_squared(params, pt, r))
            except IndeterminateError:  # the s = r pole meets a vanishing gamma part
                seed_squared = "indeterminate"
            values["seed_squared"] = seed_squared
        return values
    value = spectra.normalized_eigenvalue(family, params, pt, r)
    values = {
        "coeff": _fmt_scalar(value.coeff, precision),
        "radicand": _fmt_scalar(value.radicand, precision),
        "pole": value.coeff is POLE,
        "zero": value.coeff == 0,
    }
    if mode == "float" and value.coeff is POLE:
        values["value_float"] = "pole"
    elif mode == "float":
        z = value.to_complex()
        values["value_float"] = _fmt_float(z.real, precision) if z.imag == 0 else \
            {"re": _fmt_float(z.real, precision), "im": _fmt_float(z.imag, precision)}
    return values


class _PairsCommand(click.Command):
    """A request command (``eval``, ``table``) whose well-formed ``--name
    value`` sequence the group parses without click's parser (``_RequestGroup``).

    The click decorators stay the only declaration of each option.  When the
    tokens are pairs of a declared option name and its value, no option
    repeats, every required option is given and every given value passes the
    option's own ``process_value``, ``_pairs`` returns the values and the
    parameter sources that click's parser would set, without building one.
    Its table (each option name's parameter, the required parameters, the
    processed default of every other parameter, the help option included,
    and the processed value of each (parameter, text) seen so far) is built
    on the first such parse.  A value is stored only when ``process_value``
    returned, and at most MAX_KNOWN_VALUES of them; a text beyond that is
    processed and not kept.  Sharing them is sound because the group's
    contexts carry click's defaults (no token normaliser, default map or
    environment prefix, not resilient, ``--help`` the only help name) and the
    options are plain, so ``process_value`` depends on the parameter and the
    text alone, and its ints and strs are immutable.  So a request processes
    only the texts the command has not seen: the gain is for in-process
    callers whose values repeat, while a one-shot shell process starts with
    an empty table.  Any other input goes to click unchanged, so help, every
    usage error, ``--opt=value``, ``-ofile``, repeated options and
    completion keep click's bytes.  The two agree for plain options only (one
    value of an int range, a choice or a string; no flag, envvar, callback or
    prompt; required or with a default), which ``tests/test_cli.py`` asserts
    of both.  ``verify`` and ``torus`` run once per job, not per request, so
    they keep click's parser.
    """

    #: ({option name: param}, required params, {param: default},
    #: {(param, text): processed value})
    _table = None

    def _pairs(self, ctx, args):
        """{param: (value, source)} for every parameter, or None to leave it to click."""
        if len(args) % 2:
            return None
        if self._table is None:
            self._table = self._parse_table(ctx)
        by_opt, required, defaults, known = self._table
        values = {}
        try:
            for name, text in zip(args[::2], args[1::2]):
                param = by_opt.get(name)
                if param is None or param in values:
                    return None
                try:
                    value = known[param, text]
                except KeyError:
                    value = param.process_value(ctx, text)
                    if len(known) < MAX_KNOWN_VALUES:
                        known[param, text] = value
                values[param] = (value, ParameterSource.COMMANDLINE)
        except click.BadParameter:
            return None
        if not values.keys() >= required:
            return None
        for param, value in defaults.items():
            if param not in values:
                values[param] = (value, ParameterSource.DEFAULT)
        return values

    def _parse_table(self, ctx):
        params = self.get_params(ctx)  # the declared options and the help option
        return ({opt: param for param in self.params for opt in param.opts},
                frozenset(param for param in params if param.required),
                {param: param.process_value(ctx, param.get_default(ctx))
                 for param in params if not param.required},
                {})


class _RequestGroup(click.Group):
    """The command group.  Its ``main`` runs a well-formed request without
    click's context stack: in standalone mode, with no extra context keywords
    and no ``context_settings`` on the group or the command, when the
    completion variable is unset (click's own ``_main_shell_completion`` runs
    first, as in click's ``main``), ``argv[0]`` names a ``_PairsCommand`` and
    its ``_pairs`` accepts the remaining tokens.  It then builds the group's
    and the command's contexts as click's ``make_context`` would, with no
    parser, runs the group's callback and the command's, each under
    ``augment_usage_errors`` as click's ``Context.invoke`` does, and ends the
    run as click's ``main`` does: 0 on success, and the same handling of
    ``ClickException``, ``Exit``, ``Abort``, ``EOFError``/``KeyboardInterrupt``
    and a broken pipe.  No context is entered, so a callback that asks for the
    current context would find none; neither callback does.  Every other
    argv or caller (help, usage errors, completion, ``verify``, ``torus``, a
    caller that passes ``standalone_mode=False`` or context keywords, and
    ``sys.argv`` on Windows, where click expands it) goes to click's ``main``
    unchanged.
    """

    def main(self, args=None, prog_name=None, complete_var=None, standalone_mode=True,
             **extra):
        argv = sys.argv[1:] if args is None else list(args)
        cmd = self.commands.get(argv[0]) if argv else None
        if (not standalone_mode or extra or self.context_settings
                or not isinstance(cmd, _PairsCommand) or cmd.context_settings
                or (args is None and os.name == "nt")):
            return super().main(args, prog_name, complete_var, standalone_mode, **extra)
        if prog_name is None:
            prog_name = _detect_program_name()
        self._main_shell_completion(extra, prog_name, complete_var)  # exits if completing
        ctx = self.context_class(self, info_name=prog_name)
        sub_ctx = cmd.context_class(cmd, info_name=argv[0], parent=ctx)
        values = cmd._pairs(sub_ctx, argv[1:])
        if values is None:
            return super().main(argv, prog_name, complete_var)
        ctx.invoked_subcommand = argv[0]
        for param, (value, source) in values.items():
            sub_ctx.set_parameter_source(param.name, source)
            if param.expose_value:
                sub_ctx.params[param.name] = value
        try:
            try:
                with augment_usage_errors(ctx):
                    self.callback()
                with augment_usage_errors(sub_ctx):
                    cmd.callback(**sub_ctx.params)
            except (EOFError, KeyboardInterrupt) as err:
                click.echo(file=sys.stderr)
                raise click.Abort() from err
            except click.ClickException as err:
                err.show()
                sys.exit(err.exit_code)
            except OSError as err:
                if err.errno != errno.EPIPE:
                    raise
                sys.stdout = PacifyFlushWrapper(sys.stdout)
                sys.stderr = PacifyFlushWrapper(sys.stderr)
                sys.exit(1)
        except Exit as stop:
            sys.exit(stop.exit_code)
        except click.Abort:
            click.echo("Aborted!", file=sys.stderr)
            sys.exit(1)
        sys.exit(0)


@click.group(cls=_RequestGroup)
def main():
    """Spectra of conformal intertwinors on form bundles over sphere products."""


@main.command("eval", cls=_PairsCommand)
@click.option("--p", type=INT64, required=True)
@click.option("--q", type=INT64, required=True)
@click.option("--k", type=INT64, required=True)
@click.option("--a", type=INT64, required=True)
@click.option("--jp", type=INT64, required=True, help="first-factor harmonic level j'")
@click.option("--j", type=INT64, required=True, help="second-factor harmonic level j")
@click.option("--r", "r_text", type=str, required=True, help="order parameter")
@click.option("--family", type=click.Choice(tuple(FAMILY_ALIASES)), required=True)
@click.option("--operator", type=click.Choice(("normalized", "even-order")),
              default="normalized", show_default=True)
@click.option("--mode", type=click.Choice(("exact", "float")), default="exact",
              show_default=True)
@click.option("--precision", type=click.IntRange(2, 17), default=17, show_default=True,
              help="significant digits for floats in float mode")
@click.option("-o", "--output", type=str, default=None, help="write the record here")
def cmd_eval(p, q, k, a, jp, j, r_text, family, operator, mode, precision, output):
    """Evaluate one spectral quantity at a single parameter point."""
    params = _bundle(p, q, k, a)
    r = _parse_r(r_text, mode if operator == "normalized" else operator)
    try:
        record = _eval_record(params, jp, j, r, Family.parse(family), operator, mode,
                              precision)
    except _EVAL_ERRORS as err:
        raise click.ClickException(str(err))
    if record.get("value_float") == "pole":  # kept as a table row, an error on its own
        raise click.ClickException("pole has no finite value")
    _emit(_json_line(record), _resolve_out(output))


def _table_rows(params, jp_max, j_max, r, family, operator, mode, precision):
    """The records of the family's labels with j' <= jp_max, j <= j_max, row by row."""
    floor = spectra.level_floor(params, family)
    if floor is None:
        return
    head = _record_head(params, r, family, operator, mode)
    for jp in range(floor[0], jp_max + 1):
        for j in range(floor[1], j_max + 1):
            pt = spectra.spectral_point(params, jp, j)
            rec = _point_head(head, jp, j, pt)
            try:
                rec.update(_point_values(params, pt, r, family, operator, mode, precision))
            except DegenerateNormalizationError:
                rec["value"] = "degenerate"
            yield rec


@main.command("table", cls=_PairsCommand)
@click.option("--p", type=INT64, required=True)
@click.option("--q", type=INT64, required=True)
@click.option("--k", type=INT64, required=True)
@click.option("--a", type=INT64, required=True)
@click.option("--jp-max", type=click.IntRange(0, INT64_MAX), required=True)
@click.option("--j-max", type=click.IntRange(0, INT64_MAX), required=True)
@click.option("--r", "r_text", type=str, required=True)
@click.option("--family", type=click.Choice(tuple(FAMILY_ALIASES)), required=True)
@click.option("--operator", type=click.Choice(("normalized", "even-order")),
              default="normalized", show_default=True)
@click.option("--mode", type=click.Choice(("exact", "float")), default="exact",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(("csv", "jsonl")), default="csv",
              show_default=True)
@click.option("--precision", type=click.IntRange(2, 17), default=17, show_default=True,
              help="significant digits for floats in float mode")
@click.option("-o", "--output", type=str, default=None)
def cmd_table(p, q, k, a, jp_max, j_max, r_text, family, operator, mode, fmt,
              precision, output):
    """Tabulate spectral values over a level grid in lexicographic row order."""
    cells = (jp_max + 1) * (j_max + 1)
    if cells > MAX_TABLE_CELLS:
        raise click.UsageError(f"a table takes at most {MAX_TABLE_CELLS} cells, "
                               f"(--jp-max + 1)(--j-max + 1); got {cells}")
    params = _bundle(p, q, k, a)
    r = _parse_r(r_text, mode if operator == "normalized" else operator)
    try:
        rows = list(_table_rows(params, jp_max, j_max, r, Family.parse(family),
                                operator, mode, precision))
    except _EVAL_ERRORS as err:
        raise click.ClickException(str(err))
    if fmt == "jsonl":
        _emit("".join(_json_line(rec) for rec in rows), _resolve_out(output))
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TABLE_HEADER, restval="", extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), _resolve_out(output))


@main.command("verify")
@click.option("--suite", type=click.Choice(tuple(verify.SUITES) + ("all",)),
              default="all", show_default=True)
@click.option("--p-max", type=click.IntRange(2, INT64_MAX), default=7, show_default=True)
@click.option("--q-max", type=click.IntRange(2, INT64_MAX), default=7, show_default=True)
@click.option("--j-max", type=click.IntRange(0, INT64_MAX), default=8, show_default=True)
@click.option("--r-max", type=click.IntRange(1, MAX_EXACT_ORDER), default=4,
              show_default=True)
@click.option("-o", "--output", type=str, default="verify_report.jsonl",
              show_default=True)
def cmd_verify(suite, p_max, q_max, j_max, r_max, output):
    """Run the exact consistency suites; exit 0 only with zero failures and
    at least one passing record in every selected suite."""
    grid = verify.GridSpec(p_max=p_max, q_max=q_max, j_max=j_max,
                           r_values=tuple(range(1, r_max + 1)))
    names = tuple(verify.SUITES) if suite == "all" else (suite,)
    out = _resolve_out(output)
    failed = 0
    with _open_out(out) as fh:
        # one (p, q) slice at a time, so that only one slice's reports are held
        for name in names:
            counts = Counter()
            for part in verify.slice_grids(grid):
                reports = verify.SUITES[name](part)
                counts.update(verify.summarize(reports))
                verify.append_report(reports, fh)
            failed += counts[verify.FAIL]
            click.echo(f"{name}: total={counts['total']} pass={counts[verify.PASS]} "
                       f"fail={counts[verify.FAIL]} skipped={counts[verify.SKIP]}")
            if not counts[verify.PASS]:  # a suite that checked nothing proves nothing
                click.echo(f"{name}: no record passed")
                failed += 1
    click.echo(f"report: {out}")
    sys.exit(0 if failed == 0 else 1)


@main.command("torus")
@click.option("--k", type=click.IntRange(0, 2), required=True)
@click.option("--r", "r_text", type=str, required=True)
@click.option("--m", "--M", "m_trunc", type=click.IntRange(1, MAX_TORUS_M), default=24,
              show_default=True, help="Fourier truncation")
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="float-mode pass threshold, finite and > 0; exact mode demands an "
                   "exact zero")
@click.option("--mode", type=click.Choice(("exact", "float")), default="exact",
              show_default=True)
@click.option("-o", "--output", type=str, default=None)
def cmd_torus(k, r_text, m_trunc, tol, mode, output):
    """Measure the intertwining residual on the truncated torus basis.

    Passes only when at least one interior column was checked.
    """
    if not (math.isfinite(tol) and tol > 0):  # inf would pass any residual, NaN none
        raise click.BadParameter(f"the tolerance must be finite and > 0, got {tol!r}",
                                 param_hint="'--tol'")
    r = _parse_r(r_text, mode)
    try:
        result = torus.intertwining_residual(m_trunc, k, r, mode=mode)
    except _EVAL_ERRORS as err:
        raise click.ClickException(str(err))
    # a run that checked no column proves nothing; exact mode demands exact zero
    passed = result.columns > 0 and (
        result.exact_zero if mode == "exact" else result.residual < tol)
    point = {"k": k, "r": str(r), "M": m_trunc, "mode": mode,
             "margin": torus.MARGIN, "columns": result.columns}
    line = _json_line(verify.check_report(
        "intertwining-residual", point, verify.PASS if passed else verify.FAIL,
        repr(result.residual), f"tol {tol!r}"))
    click.echo(line, nl=False)
    out = _resolve_out(output)
    if out is not None:
        _emit(line, out)
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
