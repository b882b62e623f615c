"""Outside-in layer trace of dynfdr.

Wraps the library's functions from outside the package: each wrapper
records a span (name, parent span, start, end) in memory.  ``from .x
import f`` binds one function object in several modules, so a wrapper
is installed on every dynfdr module attribute that holds that object,
and removed again afterwards.  ``count_R`` and ``count_V`` are called
hundreds of thousands of times, so their wrappers only count.
"""

from __future__ import annotations

import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# (span name, defining module); the layer is the part of the name before the first dot
SPANS = (
    ("pvalues.sort_pvalues", "dynfdr.pvalues"),
    ("estimators.pi0_storey", "dynfdr.estimators"),
    ("estimators.pi0_storey_plus", "dynfdr.estimators"),
    ("estimators.fdr_hat_star", "dynfdr.estimators"),
    ("selection.parse_rule_spec", "dynfdr.selection"),
    ("selection.select_fixed", "dynfdr.selection"),
    ("selection.select_right_boundary", "dynfdr.selection"),
    ("selection.select_lowest_slope", "dynfdr.selection"),
    ("selection.select_right_boundary_quantile", "dynfdr.selection"),
    ("procedures.run_procedure", "dynfdr.procedures"),
    ("procedures.dynamic_adaptive", "dynfdr.procedures"),
    ("procedures.bh_step_up", "dynfdr.procedures"),
    ("procedures.threshold_functional", "dynfdr.procedures"),
    ("simulate.generate_statistics", "dynfdr.simulate"),
    ("simulate.run_experiment", "dynfdr.simulate"),
    ("simulate.emit_figure_data", "dynfdr.simulate"),
    ("verify.lemma2_exact_check", "dynfdr.verify"),
    ("verify.supermartingale_check", "dynfdr.verify"),
    ("verify.fdr_control_check", "dynfdr.verify"),
    ("verify.conservative_estimation_check", "dynfdr.verify"),
)
COUNTED_METHODS = ("count_R", "count_V")  # on dynfdr.pvalues.EmpiricalProcesses
LAYERS = ("cli", "pvalues", "estimators", "selection", "procedures", "simulate", "verify")
ROOT = "cli.main"


class Trace:
    """Spans and counters of one traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._open: list[int] = []
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.specs: set[str] = set()
        self.lsl_trace_len = 0
        self.sites: Counter[str] = Counter()

    def note_spec(self, args: tuple, out: object) -> None:
        self.specs.add(str(args[0]).strip())

    def note_lsl(self, args: tuple, out: object) -> None:
        self.lsl_trace_len += len(out.trace)

    def wrap(self, name: str, fn, on_return=None):
        layer = name.partition(".")[0]
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, open_[-1] if open_ else -1, 0.0, 0.0]
            open_.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                rec[3] = perf_counter()
                open_.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def wrap_counted(self, name: str, fn):
        layer = name.partition(".")[0]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise

        return counted

    def self_times(self) -> tuple[dict[str, float], Counter[str]]:
        """Per span name: summed self time (duration minus children's durations) and calls."""
        self_s: dict[str, float] = {}
        calls: Counter[str] = Counter()
        for name, parent, start, end in self.spans:
            d = end - start
            self_s[name] = self_s.get(name, 0.0) + d
            calls[name] += 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - d
        return self_s, calls

    def write_csv(self, path) -> None:
        """Write the spans, one per row; ``request`` is the index of the root span that caused each."""
        rows = ["index,parent,request,name,start_s,end_s"]
        t0 = self.spans[0][2] if self.spans else 0.0
        request: list[int] = []
        for i, (name, parent, start, end) in enumerate(self.spans):
            request.append(i if parent < 0 else request[parent])
            rows.append(f"{i},{parent},{request[i]},{name},{start - t0:.9f},{end - t0:.9f}")
        Path(path).write_text("\n".join(rows) + "\n")


def install(trace: Trace) -> list[tuple[object, str, object]]:
    """Wrap every binding site of every traced function; return what to restore."""
    from dynfdr.pvalues import EmpiricalProcesses

    modules = [mod for name, mod in sorted(sys.modules.items()) if name == "dynfdr" or name.startswith("dynfdr.")]
    restore: list[tuple[object, str, object]] = []
    hooks = {"selection.parse_rule_spec": trace.note_spec, "selection.select_lowest_slope": trace.note_lsl}
    for span, home in SPANS:
        original = getattr(sys.modules[home], span.partition(".")[2])
        wrapped = trace.wrap(span, original, hooks.get(span))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
                    trace.sites[span] += 1
    for method in COUNTED_METHODS:
        original = EmpiricalProcesses.__dict__[method]
        restore.append((EmpiricalProcesses, method, original))
        setattr(EmpiricalProcesses, method, trace.wrap_counted(f"pvalues.{method}", original))
        trace.sites[f"pvalues.{method}"] += 1
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def layer_metrics(trace: Trace, wall_s: float, replications: int) -> dict[str, float]:
    """The per-layer metrics of one traced round whose outer wall time was ``wall_s``."""
    self_s, calls = trace.self_times()
    calls.update(trace.counts)
    out = {"cli.self_s": self_s.get(ROOT, 0.0)}
    for span, _ in SPANS:
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    for name in (
        "pvalues.sort_pvalues",
        "estimators.pi0_storey",
        "selection.parse_rule_spec",
        "procedures.run_procedure",
        "simulate.generate_statistics",
        "selection.select_lowest_slope",
        "pvalues.count_R",
        "pvalues.count_V",
    ):
        out[f"{name}.calls"] = calls[name]
    out["pvalues.counts_per_rep"] = (calls["pvalues.count_R"] + calls["pvalues.count_V"]) / replications
    out["selection.parses_per_spec"] = calls["selection.parse_rule_spec"] / max(len(trace.specs), 1)
    out["selection.lsl_trace_len"] = trace.lsl_trace_len
    for layer in LAYERS:
        out[f"{layer}.errors"] = trace.errors[layer]
    out["trace.coverage"] = sum(self_s.values()) / wall_s
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace.coverage", "pvalues.counts_per_rep", "selection.parses_per_spec"):
        return "ratio"
    return "count"


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)$")


def import_breakdown(python: str, env: dict, cwd: str) -> dict[str, float]:
    """Cumulative import time of dynfdr and of scipy under ``import dynfdr.cli``.

    Parses ``python -X importtime``.  Its lines come children first, each
    indented two spaces deeper than its parent; a module's cumulative time
    counts once, at the outermost line of the package it belongs to.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import dynfdr.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
    )
    pending: dict[int, list] = {}
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        cum, depth, name = int(match.group(2)), len(match.group(3)), match.group(4)
        children = [c for d in sorted(k for k in pending if k > depth) for c in pending.pop(d)]
        pending.setdefault(depth, []).append((name, cum, children))

    def outermost(nodes, package):
        total = 0
        for name, cum, children in nodes:
            if name == package or name.startswith(package + "."):
                total += cum
            else:
                total += outermost(children, package)
        return total

    roots = [node for nodes in pending.values() for node in nodes]
    return {
        "import.dynfdr_s": outermost(roots, "dynfdr") / 1e6,
        "import.scipy_s": outermost(roots, "scipy") / 1e6,
    }
