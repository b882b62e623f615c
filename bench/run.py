"""dynfdr benchmark: one workload, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload simulate-blockar --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's CLI invocations run one at a time in
child processes, each followed by its output check, and the end-to-end
metrics are reported.  With ``--trace 1`` the same invocations call
``dynfdr.cli.main`` in this process, alternating untraced and traced
rounds (see layers.py), and the per-layer metrics are reported.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Everything the run writes goes under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CALL_TIMEOUT_S = 60.0
IMPORT_PROBE = "import dynfdr.cli"
REFERENCE = Path(__file__).with_name("reference.py")
# median wall time of reference.py on the machine the baseline was recorded on
# (2 cores, Python 3.11.7, numpy 2.4.6); times are reported at that speed
REFERENCE_S = 0.65
# the installed console script `dynfdr` runs exactly this
CLI_ENTRY = "from dynfdr.cli import console_entry; console_entry()"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK)
    return env


def run_child(argv: list[str], env: dict[str, str], stdout_path: Path) -> tuple[int, float, float, float]:
    """Run one child to completion; return exit code, wall s, user+sys CPU s and peak RSS MB."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, so tell Popen
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def environment() -> dict[str, str]:
    """Machine and library versions; the commit when the tree is a git checkout."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_path.read_text().strip() if ref_path.is_file() else ref
    versions = {}
    for lib in ("numpy", "scipy"):
        try:
            versions[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            versions[lib] = "missing"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **versions,
        "commit": commit,
    }


class Tally:
    """Checks attempted and failed; each failure is printed to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {problem}", file=sys.stderr)


def time_is_up(start: float, rounds: int, seconds: float) -> bool:
    """True when one more round would end farther from ``seconds`` than stopping now."""
    elapsed = perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds >= seconds


def measure(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop, one client, for about ``seconds``: reference, import probe, invocation.

    On a shared machine, speed can drift by tens of percent over minutes,
    slowing every process alike.  So each time is scaled by REFERENCE_S /
    (wall time of the reference run just before it), which reports it at
    the speed the baseline was recorded at; the raw medians are printed
    too.  Analyze runs whole rounds (one invocation per
    procedure), so every procedure is sampled equally often.
    """
    env = child_env()
    python = sys.executable
    stdout_path = WORK / "child.out"

    def reference() -> float:
        code, wall, _, _ = run_child([python, str(REFERENCE)], env, stdout_path)
        if code != 0:
            raise RuntimeError(f"{REFERENCE.name} exited with code {code}")
        return wall

    def probe() -> float:
        code, wall, _, _ = run_child([python, "-c", IMPORT_PROBE], env, stdout_path)
        if code != 0:
            tally.record(f"import probe: exit code {code}")
        return wall

    def invoke(call):
        code, wall, cpu, rss = run_child([python, "-c", CLI_ENTRY, *call.args], env, stdout_path)
        problem = wl.check(call, code, stdout_path.read_text(errors="replace"))
        if problem:
            stderr = stdout_path.with_suffix(".err").read_text(errors="replace").strip().splitlines()
            problem += f" (stderr: {stderr[-1]!r})" if stderr else ""
        tally.record(problem)
        return wall, cpu, rss

    # untimed warm-up: byte-compiles the package and fills the page cache
    reference()
    probe()
    invoke(wl.calls[0])

    raw: dict[str, list[float]] = {"reference_s": [], "setup_s": [], "wall_s": [], "cpu_s": []}
    scaled: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "cpu_s": []}
    rss = []
    start = perf_counter()
    rounds = 0
    while not rounds or not time_is_up(start, rounds, seconds):
        for call in wl.calls:
            ref, setup = reference(), probe()
            wall, cpu, peak = invoke(call)
            for name, value in (("reference_s", ref), ("setup_s", setup), ("wall_s", wall), ("cpu_s", cpu)):
                raw[name].append(value)
            for name, value in (("setup_s", setup), ("wall_s", wall), ("cpu_s", cpu)):
                scaled[name].append(value * REFERENCE_S / ref)
            rss.append(peak)
        rounds += 1
    print("raw medians: " + ", ".join(f"{k} = {statistics.median(v):.6g} s" for k, v in raw.items()))
    total_wall = sum(scaled["wall_s"])
    n = len(rss)
    metrics = {
        "setup_s": (statistics.median(scaled["setup_s"]), "s"),
        "wall_s": (statistics.median(scaled["wall_s"]), "s"),
        "cpu_s": (statistics.median(scaled["cpu_s"]), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "reps_per_s": (n * wl.reps_per_call / total_wall, "1/s"),
        "pvalues_per_s": (n * wl.reps_per_call * wl.m / total_wall, "1/s"),
    }
    return metrics, {name: n for name in metrics}


def run_inprocess(main, call) -> tuple[int, str, bytes]:
    """One in-process CLI call; returns exit code, stdout and the output file's bytes."""
    call.out.unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(call.args))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, buf.getvalue(), call.out.read_bytes() if call.out.is_file() else b""


def measure_traced(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process rounds for about ``seconds``."""
    import layers

    sys.path.insert(0, str(SRC))
    from dynfdr import cli

    env = child_env()
    imports = [layers.import_breakdown(sys.executable, env, str(ROOT)) for _ in range(3)]
    run_inprocess(cli.main, wl.calls[0])  # warm-up

    untraced, traced, per_round = [], [], []
    self_check: list[str] = []

    def plain_round() -> list[tuple[int, str, bytes]]:
        t0 = perf_counter()
        outs = [run_inprocess(cli.main, call) for call in wl.calls]
        untraced.append(perf_counter() - t0)
        for call, (code, stdout, _) in zip(wl.calls, outs):
            tally.record(wl.check(call, code, stdout))
        return outs

    def traced_round() -> tuple[list[tuple[int, str, bytes]], layers.Trace]:
        trace = layers.Trace()
        restore = layers.install(trace)
        main = trace.wrap(layers.ROOT, cli.main)
        try:
            t0 = perf_counter()
            outs = [run_inprocess(main, call) for call in wl.calls]
            traced.append(perf_counter() - t0)
        finally:
            layers.uninstall(restore)
        for call, (code, stdout, _) in zip(wl.calls, outs):
            tally.record(wl.check(call, code, stdout))
        return outs, trace

    start = perf_counter()
    while not traced or not time_is_up(start, len(traced), seconds):
        # alternate which round goes first, so order effects cancel in trace.overhead_s
        if len(traced) % 2:
            outs, trace = traced_round()
            plain = plain_round()
        else:
            plain = plain_round()
            outs, trace = traced_round()
        for call, out, ref in zip(wl.calls, outs, plain):
            if out != ref:
                self_check.append(f"{call.label}: traced output differs from untraced output")
        metrics = layers.layer_metrics(trace, traced[-1], wl.reps_per_call * len(wl.calls))
        for name, want in wl.expected_counts().items():
            if metrics[name] != want:
                self_check.append(f"{name} is {metrics[name]}, expected {want}")
        per_round.append(metrics)

    for problem in dict.fromkeys(self_check):
        tally.record(f"trace self-check: {problem}")
    out = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        unit = layers.unit(name)
        if unit == "s" or name == "trace.coverage":
            out[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) > 1:
            tally.record(f"trace self-check: {name} differs between rounds: {values}")
        out[name] = (values[0], unit)
    for name in imports[0]:
        out[name] = (statistics.median(i[name] for i in imports), "s")
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    trace.write_csv(WORK / f"spans-{wl.name}.csv")
    print(f"binding sites: {dict(sorted(trace.sites.items()))}")
    print(f"spans of the last traced round: {WORK / f'spans-{wl.name}.csv'}")
    return out, {name: len(per_round) for name in out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dynfdr" / "cli.py").is_file():
        print(f"error: {SRC / 'dynfdr' / 'cli.py'} not found; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    wl = WORKLOADS[args.workload](WORK, args.seed)
    print(f"environment: {json.dumps(environment())}")
    print(f"inputs: {json.dumps(wl.prepare())}")

    tally = Tally()
    if args.trace:
        metrics, samples = measure_traced(wl, args.seconds, tally)
    else:
        metrics, samples = measure(wl, args.seconds, tally)
        metrics["fail_frac"] = (tally.failed / tally.attempted, "ratio")
        samples["fail_frac"] = tally.attempted
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples[name]})")
    metrics.pop("fail_frac", None)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
