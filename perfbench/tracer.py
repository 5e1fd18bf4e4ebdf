"""Per-layer tracing of `daffine` from outside the package.

The tracer replaces the public functions and methods named in ``TARGETS`` with
timing wrappers, at every place they are bound: a method on its class, a
module function in its own module and in every module that imported it by
name.  Nothing inside ``src/`` is changed.

Every wrapped call is a span.  Its self time is its duration minus the time
its child spans cover, so the self times of one command sum to the duration of
its ``cli.main`` span.  Kernel calls (names starting ``exact.``) are counted
and timed in aggregate only; every other span is also kept in memory as a
record (name, start, end, parent, command) and written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute path).  Several paths may share a span name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("exact.Poly.mul", "daffine.exact.poly", "Poly.__mul__"),
    ("exact.Poly.pow", "daffine.exact.poly", "Poly.__pow__"),
    ("exact.Poly.subst", "daffine.exact.poly", "Poly.subst"),
    ("exact.Poly.add", "daffine.exact.poly", "Poly.__add__"),
    ("exact.BaseMap.pullback", "daffine.exact.poly", "BaseMap.pullback"),
    ("exact.Mat.matmul", "daffine.exact.linalg", "Mat.__matmul__"),
    ("exact.Mat.det", "daffine.exact.linalg", "Mat.det"),
    ("exact.Mat.adjugate", "daffine.exact.linalg", "Mat.adjugate"),
    ("exact.Vec.add", "daffine.exact.linalg", "Vec.__add__"),
    ("exact.Vec.dot", "daffine.exact.linalg", "Vec.dot"),
    ("atlas.compose", "daffine.atlas", "compose"),
    ("atlas.inverse", "daffine.atlas", "inverse"),
    ("atlas.cocycle_check", "daffine.atlas", "cocycle_check"),
    ("atlas.check_atlas_model_hull", "daffine.atlas", "check_atlas_model_hull"),
    ("atlas.first_difference", "daffine.atlas", "first_difference"),
    ("atlas.Atlas.transition", "daffine.atlas", "Atlas.transition"),
    ("double.interchange_sides", "daffine.double", "interchange_sides"),
    ("double.pairing", "daffine.double", "pairing"),
    ("double.contains", "daffine.double", "contains"),
    ("double.hvh_iso", "daffine.double", "hvh_iso"),
    ("double.classify_level_set", "daffine.double", "classify_level_set"),
    ("phase.build", "daffine.phase", "build"),
    ("phase.tau", "daffine.phase", "tau"),
    ("phase.kappa", "daffine.phase", "kappa"),
    ("phase.beta", "daffine.phase", "beta"),
    ("phase.iota", "daffine.phase", "iota"),
    ("phase.PhaseSet.reduce", "daffine.phase", "PhaseSet.reduce"),
    ("naffine.bbl_n", "daffine.naffine", "bbl_n"),
    ("naffine.side_bases", "daffine.naffine", "side_bases"),
    ("naffine.side_base_duality_report", "daffine.naffine", "side_base_duality_report"),
    ("randgen.point_on", "daffine.randgen", "point_on"),
    ("randgen.rand_vec", "daffine.randgen", "rand_vec"),
    ("dsl.parse", "daffine.dsl", "parse"),
    ("dsl.elaborate", "daffine.dsl", "elaborate"),
    ("suites.run", "daffine.suites", "run"),
    ("report.Report.merged", "daffine.report", "Report.merged"),
    ("report.render", "daffine.report", "Report.to_text"),
    ("report.render", "daffine.report", "Report.to_json"),
    ("cli.main", "daffine.cli", "main"),
)

# Counted without a span: called too often for a span to be worth its cost,
# and its time belongs to the caller that builds the polynomial.
COUNTED: Tuple[Tuple[str, str, str], ...] = (("exact.Poly.init", "daffine.exact.poly", "Poly.__init__"),)

HOOK_SPAN = "trace.hook"  # time the tracer spends reading gauges, kept out of every layer

# The per-layer metrics a traced run reports: (metric, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [(f"exact.Poly.{op}.{stat}", u) for op in ("mul", "pow", "subst", "add") for stat, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("exact.Poly.init.calls", "count"),
        ("exact.Poly.subst_pow_mul.self_share", "ratio"),
        ("exact.BaseMap.pullback.calls", "count"),
        ("exact.BaseMap.pullback.total_s", "s"),
        ("exact.poly.max_degree", "degree"),
        ("exact.poly.max_terms", "terms"),
        ("exact.poly.max_coeff_bits", "bits"),
    ]
    + [(f"exact.Mat.{op}.{stat}", u) for op in ("matmul", "det", "adjugate") for stat, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"exact.Vec.{op}.{stat}", u) for op in ("add", "dot") for stat, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"atlas.{op}.{stat}", u) for op in ("compose", "inverse") for stat, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    + [("atlas.cocycle_check.total_s", "s"), ("atlas.check_atlas_model_hull.total_s", "s")]
    + [(f"atlas.{op}.{stat}", u) for op in ("first_difference", "Atlas.transition") for stat, u in (("calls", "count"), ("self_s", "s"))]
    + [
        (f"double.{op}.{stat}", u)
        for op in ("interchange_sides", "pairing", "contains", "hvh_iso", "classify_level_set")
        for stat, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        (f"phase.{op}.{stat}", u)
        for op in ("build", "tau", "kappa", "beta", "iota", "PhaseSet.reduce")
        for stat, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [(f"naffine.{op}.{stat}", u) for op in ("bbl_n", "side_bases") for stat, u in (("calls", "count"), ("self_s", "s"))]
    + [("naffine.side_base_duality_report.total_s", "s")]
    + [(f"randgen.{op}.{stat}", u) for op in ("point_on", "rand_vec") for stat, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"dsl.{op}.{stat}", u) for op in ("parse", "elaborate") for stat, u in (("calls", "count"), ("self_s", "s"))]
    + [("dsl.parse.bytes_per_s", "B/s")]
    + [
        ("suites.run.calls", "count"),
        ("suites.run.self_s", "s"),
        ("report.Report.merged.calls", "count"),
        ("report.Report.merged.self_s", "s"),
        ("report.render.self_s", "s"),
        ("cli.main.total_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class Stat:
    __slots__ = ("calls", "total", "self", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # outermost activations only, so recursion is not double counted
        self.self = 0.0
        self.depth = 0


class Tracer:
    """Wraps the targets of one imported ``daffine`` and aggregates spans."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.stack: List[list] = []  # frames: [time covered by child spans, record index]
        self.spans: List[Optional[tuple]] = []
        self.command = -1
        self.bytes_parsed = 0
        self.gauges = {"max_degree": 0, "max_terms": 0, "max_coeff_bits": 0}
        self._patches: List[Tuple[object, str, object, object]] = []
        self._find_sites()

    # ---- patching ----

    def _find_sites(self) -> None:
        """Find every binding site of every target in the loaded package."""
        hooks = {
            "atlas.compose": self._transition_gauges,
            "atlas.inverse": self._transition_gauges,
            "dsl.parse": self._count_bytes,
        }
        wrappers: Dict[int, object] = {}
        for name, module, path in TARGETS + COUNTED:
            original = _resolve(module, path)
            if id(original) in wrappers:
                continue
            if (name, module, path) in COUNTED:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._span(name, original, not name.startswith("exact."), hooks.get(name))
            wrappers[id(original)] = wrapper
            for owner, attr in binding_sites(original):
                self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # ---- wrappers ----

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _counter(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)

        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn: Callable, record: bool, hook: Optional[Callable]) -> Callable:
        stat = self._stat(name)
        hook_stat = self._stat(HOOK_SPAN)
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_rec = parent[1] if parent else -1
            if record:
                rec = len(spans)
                spans.append(None)
            else:
                rec = parent_rec
            frame = [0.0, rec]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self += duration - frame[0]
                stat.depth -= 1
                if not stat.depth:
                    stat.total += duration
                if parent is not None:
                    parent[0] += duration
                if record:
                    spans[rec] = (name, start, end, parent_rec, self.command)
            if hook is not None:
                h0 = clock()
                hook(args, result)
                h = clock() - h0
                hook_stat.calls += 1
                hook_stat.self += h
                hook_stat.total += h
                if parent is not None:
                    parent[0] += h
            return result

        return span

    def _count_bytes(self, args, result) -> None:
        self.bytes_parsed += len(args[0].encode("utf-8"))

    def _transition_gauges(self, args, t) -> None:
        g = self.gauges
        for p in transition_polys(t):
            terms = p.terms
            if len(terms) > g["max_terms"]:
                g["max_terms"] = len(terms)
            for exp, c in terms.items():
                d = sum(exp)
                if d > g["max_degree"]:
                    g["max_degree"] = d
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > g["max_coeff_bits"]:
                    g["max_coeff_bits"] = bits

    # ---- results ----

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is None:  # a span still open, e.g. after an interrupt
                    continue
                name, start, end, parent, command = s
                fh.write(
                    json.dumps(
                        {"id": i, "parent": parent, "command": command, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


def per_layer_metrics(tracer: Tracer, overhead_ratio: float) -> Dict[str, float]:
    """The PER_LAYER metrics of everything ``tracer`` saw."""
    stats = tracer.stats

    def get(name: str, stat: str) -> float:
        s = stats.get(name)
        return getattr(s, stat) if s is not None else 0

    cli_total = get("cli.main", "total")
    hot = sum(get(f"exact.Poly.{op}", "self") for op in ("subst", "pow", "mul"))
    parse_s = get("dsl.parse", "total")
    special = {
        "exact.Poly.subst_pow_mul.self_share": hot / cli_total if cli_total else 0.0,
        "exact.poly.max_degree": tracer.gauges["max_degree"],
        "exact.poly.max_terms": tracer.gauges["max_terms"],
        "exact.poly.max_coeff_bits": tracer.gauges["max_coeff_bits"],
        "dsl.parse.bytes_per_s": tracer.bytes_parsed / parse_s if parse_s else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    stat_of = {"calls": "calls", "self_s": "self", "total_s": "total"}
    out = {}
    for metric, _unit in PER_LAYER:
        if metric in special:
            out[metric] = special[metric]
        else:
            name, stat = metric.rsplit(".", 1)
            out[metric] = get(name, stat_of[stat])
    return out


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = obj.__dict__[part]
    return obj


def binding_sites(obj) -> List[Tuple[object, str]]:
    """Every (module or class, attribute) of the loaded package that holds ``obj``."""
    sites = []
    for modname, module in list(sys.modules.items()):
        if modname != "daffine" and not modname.startswith("daffine."):
            continue
        for attr, value in vars(module).items():
            if value is obj:
                sites.append((module, attr))
            elif isinstance(value, type) and value.__module__ == modname:
                sites.extend((value, a) for a, v in vars(value).items() if v is obj)
    return sites


def transition_polys(t):
    """Every polynomial entry of a TransitionData."""
    for name in ("alpha0", "beta0", "gamma00"):
        yield from getattr(t, name)
    for name in ("alpha", "beta", "gamma_y", "gamma_z", "sigma"):
        for row in getattr(t, name).rows:
            yield from row
    for layer in t.gamma_yz.entries:
        for row in layer:
            yield from row
