"""Benchmark of the `daff` command line on seeded, generated `.daff` documents.

    python3 perfbench/run.py --workload atlas-glue --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each `daff` command is
issued through ``daffine.cli.main`` only after the previous one returned.  The
program sees only the generated document files and argv.  A run sets up
(imports ``daffine`` afresh, generates and writes the documents) ``SETUPS``
times, then runs whole passes over the workload's command list while they fit
in ``--seconds``; at least one pass always runs.  Every command's exit code is
checked against the answer known from how its input was built.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
each command runs once plain and once traced (see ``tracer.py``) and the run
reports the per-layer metrics.  The last line of standard output is one JSON
object; the exit code is 1 when a verdict was wrong, 2 when the run could not
start.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUPS = 3
LIB_MODULES = ("cli", "dsl", "randgen", "phase", "exact", "atlas")
TAIL_BEYOND = 10  # the tail percentile is the highest with this many commands beyond it


def import_daffine() -> SimpleNamespace:
    """Import ``daffine`` from the checkout's ``src``, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "daffine" or m.startswith("daffine.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"daffine.{m}") for m in LIB_MODULES})


def setup(workload: str, seed: int, workdir: Path):
    start = time.perf_counter()
    lib = import_daffine()
    commands = workloads.build(lib, workload, seed, workdir)
    return time.perf_counter() - start, lib, commands


def names_edge(report: str, edge) -> bool:
    """Does some FAIL record of a text report name the directed edge?"""
    src, dst = edge
    wanted = (f"{src}->{dst}", f"{min(src, dst)}<->{max(src, dst)}")
    for line in report.splitlines():
        if line.startswith("FAIL "):
            name = line.split(" -- ", 1)[0]
            if any(w in name for w in wanted):
                return True
    return False


def invoke(lib, command: workloads.Command):
    """Run one command; return (seconds, whether its verdict is the known one)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = lib.cli.main(list(command.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # any other escape is a wrong verdict, not a crash of the run
            code, crash = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
    if crash:
        print(f"{' '.join(command.argv)} raised:\n{crash}", file=sys.stderr)
    ok = code == command.expect and (command.edge is None or names_edge(out.getvalue(), command.edge))
    return elapsed, ok


def tail(values):
    """The highest percentile with TAIL_BEYOND values beyond it, and that percentile."""
    ranked = sorted(values)
    k = len(ranked) - TAIL_BEYOND - 1
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def measure(lib, commands, seconds: float):
    per_command = [[] for _ in commands]
    passes, failed = [], 0
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for i, command in enumerate(commands):
            elapsed, ok = invoke(lib, command)
            per_command[i].append(elapsed)
            failed += not ok
        passes.append(time.perf_counter() - p0)
        if time.perf_counter() - start + statistics.median(passes) > seconds:
            break
    typical = [statistics.median(t) for t in per_command]
    tail_s, tail_pct = tail(typical)
    metrics = {
        "wall_s": statistics.median(passes),
        "verdict_s.p50": statistics.median(typical),
        "verdict_s.tail": tail_s,
    }
    notes = f"{len(passes)} pass(es) of {len(commands)} commands; tail is p{tail_pct:.1f}"
    return metrics, len(passes) * len(commands), failed, notes


def measure_traced(lib, commands, seconds: float, spans_path: Path):
    """Whole passes in which each command runs plain, then traced."""
    passes, failed, sane = [], 0, True
    start = time.perf_counter()
    while True:
        t = tracer.Tracer()
        plain = traced = 0.0
        for i, command in enumerate(commands):
            elapsed, ok = invoke(lib, command)
            plain += elapsed
            failed += not ok
            self_before = sum(s.self for s in t.stats.values())
            main_before = t.stats["cli.main"].total
            t.command = i
            t.install()
            try:
                elapsed, ok = invoke(lib, command)
            finally:
                t.uninstall()
            traced += elapsed
            failed += not ok
            own = sum(s.self for s in t.stats.values()) - self_before
            main = t.stats["cli.main"].total - main_before
            sane = sane and abs(own - main) <= 1e-6 * main
        if not passes:
            t.write_spans(spans_path)
        passes.append(tracer.per_layer_metrics(t, traced / plain))
        if time.perf_counter() - start > seconds:
            break
    counts = [{k: v for k, v in p.items() if k.endswith(".calls") or k.startswith("exact.poly.")} for p in passes]
    sane = sane and all(c == counts[0] for c in counts)
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    notes = f"{len(passes)} traced pass(es) of {len(commands)} commands; spans in {spans_path}"
    return metrics, 2 * len(passes) * len(commands), failed, notes, sane


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "daffine" / "__init__.py").is_file():
        print(f"error: no daffine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setups = [setup(args.workload, args.seed, workdir) for _ in range(SETUPS if not args.trace else 1)]
        _, lib, commands = setups[-1]
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, attempted, failed, notes, sane = measure_traced(lib, commands, args.seconds, spans)
            units = dict(tracer.PER_LAYER)
        else:
            metrics, attempted, failed, notes = measure(lib, commands, args.seconds)
            sane = True
            metrics["setup_s"] = statistics.median(s for s, _, _ in setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = {"setup_s": "s", "wall_s": "s", "verdict_s.p50": "s", "verdict_s.tail": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {notes}")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
    print(f"  {'wrong_verdict_ratio':<44} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    if not sane:
        print("  trace check failed: self times do not sum to cli.main, or counts differ between passes")
    result = {
        "correct": failed == 0 and sane,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
