"""Command-line front end.

Three subcommands: ``analyze`` runs one procedure on a p-value file,
``simulate`` runs the Monte Carlo study described by a JSON config, and
``verify`` runs the theory-check suites.  All output is deterministic
given flags and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .procedures import DEFAULT_PROCEDURES, run_procedure
from .pvalues import EmpiricalProcesses, check_integer, check_number, sort_pvalues
from .selection import ORACLE, SPEC_HELP, parse_rule_spec
from .simulate import BlockAR, ScenarioConfig, emit_figure_data, run_experiment

__all__ = ["main", "console_entry"]

# simulate config key: the ScenarioConfig field it fills, or None for a key _cmd_simulate reads itself
_CONFIG_KEYS = {
    "m": "m", "pi0": "pi0", "mu": None, "J": "n_reps", "seed": "seed", "alpha": "alpha", "kappa": "kappa",
    "dependence": None, "signal_placement": "signal_placement", "procedures": None,
}
# verify suite, in report order: its checks from (seed, reps), each looked up on verify_mod when called
_SUITES = {
    "lemma2": lambda seed, reps: verify_mod.lemma2_exact_check(),
    "supermartingale": lambda seed, reps: verify_mod.supermartingale_check(seed),
    "fdr-control": lambda seed, reps: verify_mod.fdr_control_check(seed, reps),
    "conservative": lambda seed, reps: verify_mod.conservative_estimation_check(seed, reps),
}


class CliError(Exception):
    """Fatal input problem; message goes to stderr, exit code 1."""


def _read_one_column(path: str) -> np.ndarray | None:
    """The values of a one-column p-value file in one ``np.loadtxt`` pass; None when the line parser must decide.

    Line 1 is read as ``loadtxt`` breaks lines, at LF, CRLF or CR; the
    other breaks of ``str.splitlines`` are whitespace to it, so a line 1
    they split goes to the line parser.  Line 1 is skipped when its first
    field is not a float: a header, or a blank line.  ``loadtxt`` then
    needs one field on every line, parsed whole by the C routine behind
    ``float`` (which refuses ``_`` and non-ASCII digits), or it raises.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:  # a byte order mark is no header
            first = fh.readline()
        if len(first.splitlines()) > 1:
            return None
        skip = 0
        try:
            float(first.split()[0])
        except (IndexError, ValueError):  # a blank line 1 has no field
            skip = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt only warns when there is no data
            values = np.loadtxt(path, comments=None, skiprows=skip, encoding="utf-8-sig", ndmin=2)
    except (OSError, ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
        return None
    column = values[:, 0]
    return column if values.shape[1] == 1 and ((column >= 0.0) & (column <= 1.0)).all() else None


def _read_pvalue_file(path: str) -> EmpiricalProcesses:
    """The sorted sample in ``path``: one vectorised read where that is exact, else the line parser."""
    values = _read_one_column(path)
    return _parse_pvalue_lines(path) if values is None else sort_pvalues(values)


def _parse_pvalue_lines(path: str) -> EmpiricalProcesses:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        try:
            p = float(fields[0])
        except ValueError:
            if lineno == 1:
                continue  # header line
            raise CliError(f"line {lineno}: cannot parse p-value from {raw!r}") from None
        if len(fields) > 1:
            raise CliError(f"line {lineno}: expected one p-value per line, got {len(fields)} fields")
        if not 0.0 <= p <= 1.0:
            raise CliError(f"line {lineno}: p-value {p} outside [0, 1]")
        values.append(p)
    if not values:
        raise CliError(f"no p-values found in {path}")
    return sort_pvalues(values)


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
    try:
        rule = parse_rule_spec(args.procedure, kappa)
    except ValueError as exc:
        parser.error(str(exc))
    if args.pi0 is not None and rule != ORACLE:
        parser.error(f"--pi0 applies only to --procedure orc, not {args.procedure!r}")
    if args.pi0 is None and rule == ORACLE:
        parser.error("--procedure orc needs --pi0, the true null proportion")
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
        f"alpha: {args.alpha:.12g}",
        f"kappa: {kappa:.12g}",
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


def _check_keys(obj: dict, allowed, required, prefix: str = "") -> None:
    """ValueError naming a key of ``obj`` not in ``allowed`` (a misspelt key is never ignored), or a ``required`` one it lacks."""
    for key in [*obj, *required]:
        if key not in allowed:
            raise ValueError(f"unknown field {prefix + key!r}")
        if key not in obj:
            raise ValueError(f"missing field {prefix + key!r}")


def _parse_dependence(dep) -> BlockAR | None:
    """The ``dependence`` of a simulate config: left out or null is independent noise (None), else
    ``{"type": "block_ar", "block_size": ..., "rho": ...}``, a BlockAR; ValueError on any other shape."""
    if dep is None:
        return None
    if not isinstance(dep, dict) or "type" not in dep:
        raise ValueError(f"dependence={dep!r} is not an object with a 'type'")
    if dep["type"] != "block_ar":
        raise ValueError(f"dependence type {dep['type']!r} is not 'block_ar'")
    _check_keys(dep, ("type", "block_size", "rho"), ("block_size", "rho"), "dependence.")
    return BlockAR(dep["block_size"], dep["rho"])


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Read the JSON config: its keys are checked here, every value by ScenarioConfig and BlockAR."""
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        parser.error(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        parser.error("config must be a JSON object")
    rows = []
    try:
        _check_keys(cfg, _CONFIG_KEYS, ("m", "pi0", "mu", "J", "seed"))
        mus = cfg["mu"] if isinstance(cfg["mu"], list) else [cfg["mu"]]
        if not mus:
            parser.error("config field 'mu' is an empty list")
        if "kappa" in cfg and cfg["kappa"] is None:  # ScenarioConfig reads kappa=None as "kappa = alpha"
            raise ValueError("kappa=None is not a number")
        procedures = cfg.get("procedures", list(DEFAULT_PROCEDURES))
        strings = isinstance(procedures, list) and all(isinstance(s, str) for s in procedures)
        procedures = [s.strip() for s in procedures if s.strip()] if strings else procedures
        if not (strings and procedures):
            parser.error(f"config field 'procedures' must be a nonempty list of procedure specs, got {procedures!r}")
        # a key the config leaves out keeps ScenarioConfig's default
        fields = {field: cfg[key] for key, field in _CONFIG_KEYS.items() if field and key in cfg}
        first = ScenarioConfig(mu=mus[0], dependence=_parse_dependence(cfg.get("dependence")), **fields)
        # scenario i draws from seed + i, formed from the checked seed
        scenarios = [dataclasses.replace(first, mu=mu, seed=first.seed + i) for i, mu in enumerate(mus)]
        for spec in procedures:  # a bad spec rejects the config before the study runs
            parse_rule_spec(spec, first.kappa)
        _probe_out(args.out)  # before the study, not after it
        for scenario in scenarios:
            # a valid config can still imply data a procedure rejects (kq:5 at m = 3)
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
    suites = _SUITES if args.suite == "all" else (args.suite,)
    results = [r for suite in suites for r in _SUITES[suite](args.seed, args.reps)]
    print(verify_mod.format_report(results))
    if args.out:
        _write_out(args.out, lambda path: verify_mod.write_report_csv(results, path))
        print(f"wrote {args.out}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynfdr",
        description="Dynamic adaptive FDR procedures: analyze, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run one procedure on a p-value file")
    p_an.add_argument("input", help="text file: one p-value per line, optional header line")
    p_an.add_argument("--procedure", default="rb20", help=f"procedure spec (default rb20); one of: {SPEC_HELP}")
    p_an.add_argument("--alpha", type=_flag_type("alpha", float, check_number, "(0, 1)"), default=0.05, help="target FDR level (default 0.05)")
    p_an.add_argument("--kappa", type=_flag_type("kappa", float, check_number, "(0, 1)"), default=None, help="rejection-region bound (default: alpha)")
    p_an.add_argument("--pi0", type=_flag_type("pi0", float, check_number, "(0, 1]"), default=None, help="true null proportion; --procedure orc needs it, and no other procedure takes it")
    p_an.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_an.set_defaults(func=_cmd_analyze, parser=p_an)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo study from a JSON config")
    p_sim.add_argument("config", help="JSON config: m, pi0, mu (scalar or list), J, seed; optional alpha, kappa, dependence, signal_placement, procedures")
    p_sim.add_argument("--out", default="metrics.csv", help="output CSV path (default metrics.csv)")
    p_sim.set_defaults(func=_cmd_simulate, parser=p_sim)

    p_ver = sub.add_parser("verify", help="run the theory-check suites")
    p_ver.add_argument("suite", choices=(*_SUITES, "all"), help="which suite to run")
    p_ver.add_argument("--seed", type=_flag_type("seed", int, check_integer, 0), default=20260808, help="Monte Carlo seed (>= 0)")
    # a 3-SE check needs a standard error, so at least two replications
    p_ver.add_argument("--reps", type=_flag_type("reps", int, check_integer, 2), default=1000, help="replications for the simulation-backed suites (>= 2)")
    p_ver.add_argument("--out", default=None, help="also write the report as CSV")
    p_ver.set_defaults(func=_cmd_verify, parser=p_ver)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, args.parser)  # usage errors print the subcommand's usage
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a simulate config whose m is too large for one row
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
