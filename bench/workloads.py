"""The three benchmark workloads: seeded inputs, CLI arguments and output checks.

A workload seed reaches the program only through the inputs generated
here: the seed field of the simulate config, the ``--seed`` flag of
verify, and the p-value file given to analyze.  Generation is never
timed.  Every check returns a problem description, or None when the
output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

DEFAULT_SEED = 1
ALPHA = KAPPA = 0.05
DIGESTS_PATH = Path(__file__).with_name("digests.json")

# the six default procedures of `dynfdr simulate`
SIM_PROCEDURES = ("bh", "orc", "fixed:0.5", "rb20", "lsl", "rb20q")
SIM_MUS = (1.0, 2.0)
SIM_J = 1000
VERIFY_REPS = 1000
ANALYZE_M = 1_000_000
ANALYZE_PROCEDURES = ("bh", "rb20", "lsl", "rb20q")


def program_seed(workload: str, seed: int) -> int:
    """Seed handed to the program, a pure function of (workload, seed)."""
    return random.Random(f"{workload}:{seed}").randrange(2**31)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class Call:
    """One CLI invocation: a label, its arguments and the file it writes."""

    label: str
    args: tuple[str, ...]
    out: Path


class Workload:
    """Base class; subclasses fill in the inputs, the round and the checks."""

    name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.pseed = program_seed(self.name, seed)
        self.digests = None
        if seed == DEFAULT_SEED:
            recorded = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.is_file() else {}
            self.digests = recorded.get(self.name, {})
        self.calls: tuple[Call, ...] = ()
        self.reps_per_call = 0
        self.m = 0

    def prepare(self) -> dict:
        """Write the inputs; return the properties the program's behaviour depends on."""
        raise NotImplementedError

    def check(self, call: Call, code: int, stdout: str) -> str | None:
        """Check exit code, stdout and the output file of one invocation."""
        if code != 0:
            return f"{call.label}: exit code {code}"
        if not call.out.is_file():
            return f"{call.label}: no output file {call.out.name}"
        problem = self._check_output(call, stdout)
        if problem:
            return f"{call.label}: {problem}"
        if self.digests is not None:
            if sha256(call.out) != self.digests.get(call.label):
                return f"{call.label}: sha256 differs from the digest recorded for seed {DEFAULT_SEED}"
        return None

    def _check_output(self, call: Call, stdout: str) -> str | None:
        raise NotImplementedError

    def expected_counts(self) -> dict[str, int]:
        """Exact per-layer counts the traced run must see in one round."""
        raise NotImplementedError


def _expected_r_kappa(m: int, pi0: float, mu: float) -> float:
    """E[R(kappa)] for one-sided normal p-values with a +mu shift on the m1 false nulls."""
    m0 = round(pi0 * m)
    z = NormalDist().inv_cdf(1.0 - KAPPA)
    return m0 * KAPPA + (m - m0) * (1.0 - NormalDist().cdf(z - mu))


class SimulateBlockAR(Workload):
    name = "simulate-blockar"

    def prepare(self) -> dict:
        cfg = {
            "m": 1000,
            "pi0": 0.8,
            "mu": list(SIM_MUS),
            "alpha": ALPHA,
            "J": SIM_J,
            "seed": self.pseed,
            "dependence": {"type": "block_ar", "block_size": 50, "rho": -0.9},
            "procedures": list(SIM_PROCEDURES),
        }
        path = self.work / "simulate.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n")
        out = self.work / "simulate.csv"
        self.calls = (Call("csv", ("simulate", str(path), "--out", str(out)), out),)
        self.reps_per_call = SIM_J * len(SIM_MUS)
        self.m = cfg["m"]
        return {
            "m": cfg["m"],
            "pi0": cfg["pi0"],
            "alternative": "N(mu, 1) statistics, mu in {1, 2}, block-AR(50, -0.9) noise",
            "J": SIM_J,
            "program_seed": self.pseed,
            "expected_R_kappa": [round(_expected_r_kappa(cfg["m"], cfg["pi0"], mu), 1) for mu in SIM_MUS],
            "expected_lsl_trace_len": "per replication; measured by the traced run",
        }

    def _check_output(self, call: Call, stdout: str) -> str | None:
        if stdout.splitlines()[-1:] != [f"wrote {call.out}"]:
            return "stdout does not end with the 'wrote' line"
        rows = list(csv.reader(io.StringIO(call.out.read_text())))
        if rows[:1] != [["scenario", "procedure", "metric", "value", "mc_se"]]:
            return "bad CSV header"
        body = rows[1:]
        want = 5 * len(SIM_MUS) * len(SIM_PROCEDURES)
        if len(body) != want:
            return f"CSV has {len(body)} rows, expected {want}"
        metrics = ("fdr", "corrected_fdr", "rel_power", "log_mse_m0", "mean_lambda")
        for i, row in enumerate(body):
            if len(row) != 5 or row[2] != metrics[i % 5]:
                return f"CSV row {i + 2} is malformed"
            if row[1] != SIM_PROCEDURES[(i // 5) % len(SIM_PROCEDURES)]:
                return f"CSV row {i + 2} has procedure {row[1]!r}"
            try:
                float(row[3]), float(row[4])
            except ValueError:
                return f"CSV row {i + 2} has a non-numeric value"
        return None

    def expected_counts(self) -> dict[str, int]:
        reps = self.reps_per_call
        return {
            "simulate.generate_statistics.calls": reps,
            "procedures.run_procedure.calls": len(SIM_PROCEDURES) * reps,
            "pvalues.sort_pvalues.calls": reps,
        }


_VERIFY_LINE = re.compile(r"^(PASS|SKIP) \S+: statistic=")
_VERIFY_SUMMARY = re.compile(r"^(\d+) checks, 0 failed$")


class VerifyAll(Workload):
    name = "verify-all"

    def prepare(self) -> dict:
        out = self.work / "verify.csv"
        args = ("verify", "all", "--seed", str(self.pseed), "--reps", str(VERIFY_REPS), "--out", str(out))
        self.calls = (Call("csv", args, out),)
        # the fdr-control and conservative suites each run reps replications
        self.reps_per_call = 2 * VERIFY_REPS
        self.m = 1000
        return {
            "m": 1000,
            "pi0": 0.8,
            "alternative": "N(mu, 1) statistics, mu = 2 (fdr-control) and 1 (conservative), independent noise",
            "reps": VERIFY_REPS,
            "program_seed": self.pseed,
            "expected_R_kappa": [round(_expected_r_kappa(1000, 0.8, mu), 1) for mu in (2.0, 1.0)],
            "expected_lsl_trace_len": "per replication; measured by the traced run",
        }

    def _check_output(self, call: Call, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if lines[-1:] != [f"wrote {call.out}"] or len(lines) < 3:
            return "stdout does not end with the 'wrote' line"
        checks = lines[:-2]
        bad = [line for line in checks if not _VERIFY_LINE.match(line)]
        if bad:
            return f"check line is not PASS or SKIP: {bad[0]!r}"
        summary = _VERIFY_SUMMARY.match(lines[-2])
        if not summary or int(summary.group(1)) != len(checks):
            return f"bad summary line {lines[-2]!r}"
        rows = list(csv.reader(io.StringIO(call.out.read_text())))[1:]
        if len(rows) != len(checks) or any(row[4] != "pass" for row in rows):
            return "verify CSV disagrees with stdout or holds a failed check"
        return None

    def expected_counts(self) -> dict[str, int]:
        return {
            "pvalues.count_V.calls": VERIFY_REPS,
            "simulate.generate_statistics.calls": 2 * VERIFY_REPS,
            # fdr-control runs 4 rules plus bh and orc; conservative runs the 4 rules
            "procedures.run_procedure.calls": 10 * VERIFY_REPS,
        }


def _lowest_slope_trace_len(p_sorted: np.ndarray) -> int:
    """Length of the lowest-slope scan trace, recomputed from the sorted p-values.

    The scan stops at the first order statistic p_(i), i >= 2, that lies in
    [kappa, 1) and whose plus-one pi0 estimate strictly exceeds the one at
    p_(i-1); the trace holds every order statistic up to that point, or all
    of them when the scan never stops.
    """
    m = p_sorted.size
    below_one = p_sorted < 1.0
    r = np.searchsorted(p_sorted, p_sorted, side="right")
    est = np.full(m, np.nan)
    est[below_one] = (m - r[below_one] + 1) / ((1.0 - p_sorted[below_one]) * m)
    stop = below_one & (p_sorted >= KAPPA)
    stop[0] = False
    with np.errstate(invalid="ignore"):
        stop[1:] &= est[1:] > est[:-1]
    hits = np.flatnonzero(stop)
    return int(hits[0]) + 1 if hits.size else m


class Analyze1e6(Workload):
    name = "analyze-1e6"

    def prepare(self) -> dict:
        rng = np.random.default_rng(self.pseed)
        m = ANALYZE_M
        m1 = m // 5
        p = rng.random(m)
        alt = rng.permutation(m)[:m1]
        p[alt] = p[alt] ** 8
        path = self.work / "pvalues.txt"
        path.write_text("\n".join(format(v, ".17g") for v in p.tolist()) + "\n")
        # the check works from the file as the program reads it
        self.p = np.array(path.read_text().split(), dtype=float)
        self.calls = tuple(
            Call(spec, ("analyze", str(path), "--procedure", spec, "--out", str(self.work / f"analyze-{spec}.txt")),
                 self.work / f"analyze-{spec}.txt")
            for spec in ANALYZE_PROCEDURES
        )
        self.reps_per_call = 1
        self.m = m
        self.lsl_trace_len = _lowest_slope_trace_len(np.sort(self.p, kind="stable"))
        return {
            "m": m,
            "pi0": 0.8,
            "alternative": "U^8 on 20% of positions, uniform elsewhere",
            "program_seed": self.pseed,
            "R_kappa": int(np.count_nonzero(self.p <= KAPPA)),
            "expected_lsl_trace_len": self.lsl_trace_len,
        }

    def _check_output(self, call: Call, stdout: str) -> str | None:
        fields = {}
        for line in call.out.read_text().splitlines():
            key, sep, value = line.partition(": ")
            if not sep:
                return f"report line {line[:40]!r} is not 'key: value'"
            fields[key] = value
        try:
            if fields["procedure"] != call.label or int(fields["m"]) != self.m:
                return "report names the wrong procedure or m"
            threshold = float(fields["threshold"])
            n = int(fields["n_rejected"])
            raw = fields["rejected_indices"]
            idx = np.array(raw.split(), dtype=np.int64) if raw != "-" else np.empty(0, np.int64)
        except (KeyError, ValueError) as exc:
            return f"report is malformed: {exc!r}"
        if idx.size != n or (n and (idx[0] < 0 or idx[-1] >= self.m or np.any(np.diff(idx) <= 0))):
            return "rejected_indices are not n_rejected distinct ascending indices"
        rejected = np.zeros(self.m, dtype=bool)
        rejected[idx] = True
        hi = self.p[rejected].max() if n else threshold
        lo = self.p[~rejected].min() if n < self.m else math.inf
        if not hi < lo:
            return f"rejected set is not a lower tail (max rejected {float(hi)!r}, min kept {float(lo)!r})"
        # the threshold is the largest rejected p-value, printed to 12 digits, or kappa itself
        if n and format(hi, ".12g") != fields["threshold"] and not (threshold == KAPPA and hi <= KAPPA < lo):
            return f"rejected set is not {{i: p_i <= {fields['threshold']}}} (max rejected {float(hi)!r}, min kept {float(lo)!r})"
        return None

    def expected_counts(self) -> dict[str, int]:
        n = len(ANALYZE_PROCEDURES)
        return {
            "procedures.run_procedure.calls": n,
            "pvalues.sort_pvalues.calls": n,
            "selection.select_lowest_slope.calls": 1,
            "selection.lsl_trace_len": self.lsl_trace_len,
        }


WORKLOADS = {w.name: w for w in (SimulateBlockAR, VerifyAll, Analyze1e6)}
