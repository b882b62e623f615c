"""Command-line front end.

Three subcommands: ``analyze`` runs one procedure on a p-value file,
``simulate`` runs the Monte Carlo study described by a JSON config, and
``verify`` runs the theory-check suites.  All output is deterministic
given flags and seeds.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .estimators import check_integer, check_number, check_open_unit, check_proportion
from .procedures import DEFAULT_PROCEDURES, run_procedure
from .pvalues import EmpiricalProcesses, sort_pvalues
from .selection import SPEC_HELP, parse_rule_spec
from .simulate import BlockAR, ScenarioConfig, emit_figure_data, run_experiment

__all__ = ["main", "console_entry"]

VERIFY_SUITES = ("lemma2", "supermartingale", "fdr-control", "conservative", "all")


class CliError(Exception):
    """Fatal input problem; message goes to stderr, exit code 1."""


def _fields(line: str) -> list[str]:
    """The fields of one line of a p-value file: split at commas and whitespace."""
    return re.split(r"[,\s]+", line.strip())


def _read_one_column(path: str) -> np.ndarray | None:
    """The values of a one-column p-value file in one ``np.loadtxt`` pass; None when the line parser must decide.

    The lines up to the first p-value get the line parser's own checks:
    an optional header on line 1, then one field that ``float`` takes.
    ``loadtxt`` then needs one field on every line, parsed whole by the C
    routine behind ``float`` (which refuses ``_`` and non-ASCII digits),
    or it raises.  It breaks lines at LF, CRLF and CR only;
    the other breaks of ``str.splitlines`` are whitespace to it, so a
    line they split in two has two fields.
    """
    skip = 0
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):  # split at LF alone
                line = raw.decode("utf-8")
                if len(line.splitlines()) > 1:
                    return None
                fields = _fields(line)
                if fields == [""]:
                    continue
                try:
                    float(fields[0])
                except ValueError:
                    if lineno > 1:
                        return None
                    skip = 1  # header line
                    continue
                if len(fields) > 1:
                    return None
                break
            else:
                return None  # no p-values
        values = np.loadtxt(path, comments=None, skiprows=skip, encoding="utf-8", ndmin=1)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    return values if ((values >= 0.0) & (values <= 1.0)).all() else None


def _read_pvalue_file(path: str) -> EmpiricalProcesses:
    """The sorted sample in ``path``: one vectorised read where that is exact, else the line parser."""
    values = _read_one_column(path)
    return _parse_pvalue_lines(path) if values is None else sort_pvalues(values)


def _parse_pvalue_lines(path: str) -> EmpiricalProcesses:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    values: list[float] = []
    labels: list[bool] = []
    has_labels: bool | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = _fields(line)
        try:
            p = float(fields[0])
        except ValueError:
            if lineno == 1 and not values:
                continue  # header line
            raise CliError(f"line {lineno}: cannot parse p-value from {raw!r}") from None
        if not 0.0 <= p <= 1.0:
            raise CliError(f"line {lineno}: p-value {p} outside [0, 1]")
        if len(fields) > 2:
            raise CliError(f"line {lineno}: expected at most 2 columns, got {len(fields)}")
        row_has_label = len(fields) == 2
        if has_labels is None:
            has_labels = row_has_label
        elif has_labels != row_has_label:
            raise CliError(f"line {lineno}: inconsistent column count (truth labels must be all-or-none)")
        if row_has_label:
            if fields[1] not in ("0", "1"):
                raise CliError(f"line {lineno}: truth label must be 0 or 1, got {fields[1]!r}")
            labels.append(fields[1] == "1")
        values.append(p)
    if not values:
        raise CliError(f"no p-values found in {path}")
    return sort_pvalues(values, labels if has_labels else None)


def _check_specs(specs: list[str], kappa: float, parser: argparse.ArgumentParser) -> list:
    """The rule of every spec; a spec that does not parse is a usage error."""
    rules = []
    for spec in specs:
        try:
            rules.append(parse_rule_spec(spec, kappa))
        except ValueError as exc:
            parser.error(f"invalid procedure spec {spec!r}: {exc}")
    return rules


def _write_out(path: str, write) -> None:
    """Call ``write(path)``; a file that cannot be written is an ``error:``, exit 1."""
    try:
        write(path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _probe_out(path: str) -> None:
    """Fail now if ``path`` cannot be written; leave behind no file that was not there."""
    existed = Path(path).exists()
    _write_out(path, lambda p: Path(p).open("a").close())  # append mode keeps an existing file as it is
    if not existed:
        Path(path).unlink(missing_ok=True)


def _flag_type(name: str, convert, check, *args):
    """argparse type for --<name>: the text as ``convert`` reads it, if ``check(name, value, *args)`` accepts that."""

    def parse(text: str) -> float | int:
        try:
            value = convert(text)
        except ValueError:
            value = text  # the checker rejects the text itself, in its own words
        try:
            return check(name, value, *args)
        except ValueError as exc:  # argparse turns this into a usage error naming the flag
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    kappa = args.alpha if args.kappa is None else args.kappa
    (rule,) = _check_specs([args.procedure], kappa, parser)
    proc = _read_pvalue_file(args.input)
    try:
        res = run_procedure(rule, proc, args.alpha, pi0=args.pi0)
    except ValueError as exc:  # the arguments were checked above, so the data is at fault
        raise CliError(str(exc)) from exc

    lam, pi0_star = res.pi0.lam, res.pi0.value
    flags = ",".join(res.pi0.flags) if res.pi0.flags else "-"
    lines = [
        f"procedure: {args.procedure}",
        f"m: {proc.m}",
        f"alpha: {args.alpha:g}",
        f"kappa: {kappa:g}",
        f"lambda: {lam:g}",
        f"pi0_star: {pi0_star:.12g}",
        f"m0_hat: {pi0_star * proc.m:.12g}",
        f"threshold: {res.threshold:.12g}",
        f"fdr_estimate_at_threshold: {res.fdr_estimate_at_threshold:.12g}",
        f"n_rejected: {res.n_rejected}",
        "rejected_indices: " + (" ".join(map(str, res.rejected.tolist())) if res.n_rejected else "-"),
        f"flags: {flags}",
    ]
    out = "\n".join(lines) + "\n"
    if args.out:
        _write_out(args.out, lambda path: Path(path).write_text(out, encoding="utf-8"))
    else:
        sys.stdout.write(out)
    return 0


def _cfg_field(cfg: dict, name: str, check, parser, required=True, default=None):
    """``cfg[name]`` as ``check(name, value)`` returns it: check_integer or check_number."""
    if name not in cfg:
        if required:
            parser.error(f"config is missing field {name!r}")
        return default
    value = cfg[name]
    try:
        return check(name, value)
    except ValueError:
        parser.error(f"config field {name!r} has bad value {value!r}")


def _parse_dependence(cfg: dict, parser: argparse.ArgumentParser) -> BlockAR | None:
    dep = cfg.get("dependence")
    if dep is None:
        return None
    if not isinstance(dep, dict) or "type" not in dep:
        parser.error("config field 'dependence' must be an object with a 'type'")
    kind = dep["type"]
    if kind in ("independent", "indep", "none"):
        return None
    if kind in ("block_ar", "blockar", "ar"):
        block_size = _cfg_field(dep, "block_size", check_integer, parser)
        rho = _cfg_field(dep, "rho", check_number, parser)
        try:
            return BlockAR(block_size=block_size, rho=rho)
        except ValueError as exc:
            parser.error(f"config field 'dependence' is malformed: {exc}")
    parser.error(f"config field 'dependence.type' unknown: {kind!r}")


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        parser.error(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        parser.error("config must be a JSON object")

    m = _cfg_field(cfg, "m", check_integer, parser)
    pi0 = _cfg_field(cfg, "pi0", check_number, parser)
    alpha = _cfg_field(cfg, "alpha", check_number, parser, required=False, default=0.05)
    kappa = _cfg_field(cfg, "kappa", check_number, parser, required=False, default=None)
    n_reps = _cfg_field(cfg, "J", check_integer, parser)
    seed = _cfg_field(cfg, "seed", check_integer, parser)
    mu_raw = cfg.get("mu")
    if mu_raw is None:
        parser.error("config is missing field 'mu'")
    mus = mu_raw if isinstance(mu_raw, list) else [mu_raw]
    try:
        mus = [check_number("mu", v) for v in mus]
    except ValueError:
        parser.error(f"config field 'mu' has bad value {mu_raw!r}")
    if not mus:
        parser.error("config field 'mu' is an empty list")
    dependence = _parse_dependence(cfg, parser)
    placement = cfg.get("signal_placement", "head")

    if args.procedures:
        procedures = [s.strip() for s in args.procedures.split(",") if s.strip()]
    else:
        procedures = cfg.get("procedures", list(DEFAULT_PROCEDURES))

    rows = []
    try:
        scenarios = [
            ScenarioConfig(
                m=m,
                pi0=pi0,
                mu=mu,
                n_reps=n_reps,
                seed=seed + idx,
                alpha=alpha,
                kappa=kappa,
                dependence=dependence,
                signal_placement=placement,
            )
            for idx, mu in enumerate(mus)
        ]
        _check_specs(procedures, scenarios[0].kappa, parser)
        _probe_out(args.out)  # before the study, not after it
        for scenario in scenarios:
            # a valid config can still imply data a procedure rejects (lsl at m = 1)
            rows.extend(run_experiment(scenario, procedures))
    except ValueError as exc:
        parser.error(f"config rejected: {exc}")
    _write_out(args.out, lambda path: emit_figure_data(rows, path))

    header = f"{'scenario':<40} {'procedure':<10} {'fdr':>8} {'corr_fdr':>9} {'rel_pow':>8} {'mse_m0':>12}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row.scenario:<40} {row.procedure:<10} {row.realized_fdr:>8.4f} "
            f"{row.corrected_fdr:>9.4f} {row.relative_power:>8.4f} {row.mse_m0:>12.1f}"
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.out:
        _probe_out(args.out)  # before the suites, not after them
    results = []
    suites = VERIFY_SUITES[:-1] if args.suite == "all" else (args.suite,)
    for suite in suites:
        if suite == "lemma2":
            results.extend(verify_mod.lemma2_exact_check())
        elif suite == "supermartingale":
            for m0 in (10, 50):
                for s, t in ((0.2, 0.6), (0.5, 0.9)):
                    results.extend(
                        verify_mod.supermartingale_check(m0, s, t, draws=100_000, seed=args.seed)
                    )
        elif suite == "fdr-control":
            cfg = ScenarioConfig(m=1000, pi0=0.8, mu=2.0, n_reps=args.reps, seed=args.seed)
            results.extend(verify_mod.fdr_control_check(cfg))
        elif suite == "conservative":
            cfg = ScenarioConfig(m=1000, pi0=0.8, mu=1.0, n_reps=args.reps, seed=args.seed)
            results.extend(verify_mod.conservative_estimation_check(cfg))
    print(verify_mod.format_report(results))
    if args.out:
        _write_out(args.out, lambda path: verify_mod.write_report_csv(results, path))
        print(f"wrote {args.out}")
    return 0 if verify_mod.all_passed(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynfdr",
        description="Dynamic adaptive FDR procedures: analyze, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run one procedure on a p-value file")
    p_an.add_argument("input", help="text file: one p-value per line, optional 0/1 truth column (1 = true null)")
    p_an.add_argument("--procedure", default="rb20", help=f"procedure spec (default rb20); one of: {SPEC_HELP}")
    p_an.add_argument("--alpha", type=_flag_type("alpha", float, check_open_unit), default=0.05, help="target FDR level (default 0.05)")
    p_an.add_argument("--kappa", type=_flag_type("kappa", float, check_open_unit), default=None, help="rejection-region bound (default: alpha)")
    p_an.add_argument("--pi0", type=_flag_type("pi0", float, check_proportion), default=None, help="true null proportion for orc")
    p_an.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_an.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo study from a JSON config")
    p_sim.add_argument("config", help="JSON config: m, pi0, mu (scalar or list), dependence, alpha, J, seed")
    p_sim.add_argument("--procedures", default=None, help="comma list of procedure specs (overrides config)")
    p_sim.add_argument("--out", default="metrics.csv", help="output CSV path (default metrics.csv)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the theory-check suites")
    p_ver.add_argument("suite", choices=VERIFY_SUITES, help="which suite to run")
    p_ver.add_argument("--seed", type=_flag_type("seed", int, check_integer, 0), default=20260808, help="Monte Carlo seed (>= 0)")
    # a 3-SE check needs a standard error, so at least two replications
    p_ver.add_argument("--reps", type=_flag_type("reps", int, check_integer, 2), default=1000, help="replications for the simulation-backed suites (>= 2)")
    p_ver.add_argument("--out", default=None, help="also write the report as CSV")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
