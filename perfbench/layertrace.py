"""Per-layer counters and self times, recorded from outside the program.

``install`` replaces functions and methods of the ``ssetforge`` modules
with wrappers.  A function is replaced under every module attribute that
is bound to it, so a call through a re-import (``quotient`` in
``desingularize`` and ``verify``, ``pushout`` in ``cylinders``) is seen
too.  A span wrapper counts calls and accumulates self time: the span's
duration minus the durations of the spans it encloses.  The hottest
leaves (operator construction, ``compose``, ``ez_factor`` and
``SimplicialSet.eval``) only count, which keeps the overhead bounded.

Spans are aggregated per name in memory; nothing is written until the
session reports its result.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "operators", "simplicial", "colimits", "subdivision", "posets",
    "desingularize", "cylinders", "corpus", "textio", "cli", "verify",
)

# (module, attribute path) -> span name
SPANS = {
    ("simplicial", "SimplicialSet._validate"): "simplicial.SimplicialSet.validate",
    ("simplicial", "SimplicialMap._validate"): "simplicial.SimplicialMap.validate",
    ("colimits", "is_regular"): "colimits.is_regular",
    ("colimits", "pushout"): "colimits.pushout",
    ("colimits", "quotient"): "colimits.quotient",
    ("colimits", "product"): "colimits.product",
    ("colimits", "Congruence.merge"): "colimits.Congruence.merge",
    ("subdivision", "sd"): "subdivision.sd",
    ("subdivision", "b_nat"): "subdivision.b_nat",
    ("subdivision", "t_nat"): "subdivision.t_nat",
    ("posets", "FinPoset.__init__"): "posets.FinPoset.init",
    ("posets", "nerve"): "posets.nerve",
    ("posets", "poset_pushout"): "posets.poset_pushout",
    ("desingularize", "zipper_desingularize"): "desingularize.zipper",
    ("desingularize", "oracle_desingularize"): "desingularize.oracle",
    ("desingularize", "factor_through_quotient"): "desingularize.factor_through_quotient",
    ("cylinders", "cylinder_reduction"): "cylinders.cylinder_reduction",
    ("cylinders", "dcr"): "cylinders.dcr",
    ("corpus", "gen_corpus"): "corpus.gen_corpus",
    ("textio", "parse_sset"): "textio.parse",
    ("textio", "parse_smap"): "textio.parse",
    ("textio", "parse_poset"): "textio.parse",
    ("textio", "parse_pmap"): "textio.parse",
    ("textio", "format_sset"): "textio.format",
    ("textio", "format_smap"): "textio.format",
    ("textio", "format_poset"): "textio.format",
    ("textio", "format_pmap"): "textio.format",
    ("cli", "main"): "cli.main",
    ("verify", "verify_main_theorem"): "verify.campaign",
    ("verify", "verify_second_subdivision"): "verify.campaign",
    ("verify", "format_report"): "verify.format_report",
}

# (module, attribute path) -> counter name
COUNTERS = {
    ("operators", "Operator.__post_init__"): "operators.Operator.new",
    ("operators", "compose"): "operators.compose.calls",
    ("operators", "ez_factor"): "operators.ez_factor.calls",
    ("simplicial", "SimplicialSet.eval"): "simplicial.eval.calls",
    ("simplicial", "SimplicialSet.__init__"): "simplicial.SimplicialSet.new",
    ("simplicial", "SimplicialMap.__init__"): "simplicial.SimplicialMap.new",
    ("colimits", "Congruence.copy"): "colimits.Congruence.copy.calls",
    ("colimits", "Congruence.canonical"): "colimits.Congruence.canonical.calls",
}


class Tracer:
    """Counts and self times keyed by span or counter name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._compose_args: set = set()
        self._subdivided: set = set()
        self._depth: Counter[str] = Counter()

    def span(self, name: str, fn, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = perf_counter() - started
                stack.pop()
                self_s[name] += took - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += took
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for the derived metrics --------------------------------------

    def _compose(self, fn):
        counts, seen = self.counts, self._compose_args

        @functools.wraps(fn)
        def wrapper(first, second):
            counts["operators.compose.calls"] += 1
            seen.add((first, second))
            return fn(first, second)

        return wrapper

    def _sd_input(self, fn):
        counts, seen = self.counts, self._subdivided

        @functools.wraps(fn)
        def wrapper(space, *args, **kwargs):
            key = frozenset(space.cells.items())
            if key in seen:
                counts["subdivision.sd.repeats"] += 1
            seen.add(key)
            return fn(space, *args, **kwargs)

        return wrapper

    def _zipper_result(self, args, res) -> None:
        self.counts["desingularize.zipper.rounds"] += len(res.moves)
        if res.certificate.name == "ZIPPER":
            self.counts["desingularize.zipper.certified"] += 1

    def _nested(self, name: str, fn):
        """Track how deep calls of ``name`` nest (parse_smap calls parse_sset)."""
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] -= 1

        return wrapper

    def _text_in(self, args, out) -> None:
        if self._depth["textio.parse"] == 1:
            self.counts["textio.bytes_read"] += len(args[0].encode())

    def _text_out(self, args, out) -> None:
        if self._depth["textio.format"] == 1:
            self.counts["textio.bytes_written"] += len(out.encode())

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as (value, unit)."""
        c, calls, self_s = self.counts, self.calls, self.self_s
        out: dict[str, tuple[float, str]] = {}
        for name in ("operators.Operator.new", "operators.compose.calls",
                     "operators.ez_factor.calls", "simplicial.eval.calls",
                     "simplicial.SimplicialSet.new", "simplicial.SimplicialMap.new",
                     "colimits.Congruence.copy.calls",
                     "colimits.Congruence.canonical.calls",
                     "desingularize.zipper.rounds",
                     "textio.bytes_read", "textio.bytes_written"):
            out[name] = (c[name], "count" if "bytes" not in name else "B")
        out["operators.compose.distinct_ratio"] = (
            _ratio(len(self._compose_args), c["operators.compose.calls"]), "ratio")
        for span, metric in (
            ("simplicial.SimplicialSet.validate", "simplicial.SimplicialSet.validate_s"),
            ("simplicial.SimplicialMap.validate", "simplicial.SimplicialMap.validate_s"),
            ("posets.FinPoset.init", "posets.FinPoset.init_s"),
        ):
            out[metric] = (self_s[span], "s")
        out["posets.FinPoset.new"] = (calls["posets.FinPoset.init"], "count")
        for span in ("colimits.is_regular", "colimits.pushout", "colimits.quotient",
                     "colimits.Congruence.merge", "subdivision.sd", "posets.nerve",
                     "desingularize.zipper", "desingularize.oracle",
                     "cylinders.cylinder_reduction", "cli.main"):
            out[f"{span}.calls"] = (calls[span], "count")
            out[f"{span}.self_s"] = (self_s[span], "s")
        for span in ("colimits.product", "subdivision.b_nat", "subdivision.t_nat",
                     "posets.poset_pushout", "desingularize.factor_through_quotient",
                     "cylinders.dcr", "corpus.gen_corpus", "textio.parse",
                     "textio.format"):
            out[f"{span}.self_s"] = (self_s[span], "s")
        out["verify.self_s"] = (
            self_s["verify.campaign"] + self_s["verify.format_report"], "s")
        out["subdivision.sd.repeat_ratio"] = (
            _ratio(c["subdivision.sd.repeats"], calls["subdivision.sd"]), "ratio")
        out["desingularize.zipper.certified_ratio"] = (
            _ratio(c["desingularize.zipper.certified"], calls["desingularize.zipper"]),
            "ratio")
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(old, new) -> None:
    """Point every ssetforge module attribute bound to ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if name != "ssetforge" and not name.startswith("ssetforge."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries; call before importing callers."""
    importlib.import_module("ssetforge")
    modules = {name: importlib.import_module(f"ssetforge.{name}") for name in LAYERS}
    afters = {
        "desingularize.zipper": tracer._zipper_result,
        "textio.parse": tracer._text_in,
        "textio.format": tracer._text_out,
    }
    plan = []
    for (mod, path), name in COUNTERS.items():
        owner, attr = _resolve(modules[mod], path)
        fn = getattr(owner, attr)
        if name == "operators.compose.calls":
            new = tracer._compose(fn)
        else:
            new = tracer.counter(name, fn)
        plan.append((owner, attr, fn, new))
    for (mod, path), name in SPANS.items():
        owner, attr = _resolve(modules[mod], path)
        fn = getattr(owner, attr)
        new = tracer.span(name, fn, afters.get(name))
        if name in ("textio.parse", "textio.format"):
            new = tracer._nested(name, new)
        if name == "subdivision.sd":
            new = tracer._sd_input(new)
        plan.append((owner, attr, fn, new))
    for owner, attr, fn, new in plan:
        if isinstance(owner, type):
            setattr(owner, attr, new)
        else:
            _rebind(fn, new)
