"""Per-layer tracing from outside the package.

Tracer.installed() rebinds the public functions listed below to timing
wrappers in every loaded gfans module that holds them (so calls between
modules are seen), and restores the originals on exit.  Nothing under
src/ changes.  A wrapper returns exactly what the wrapped function
returns and re-raises exactly what it raises.

Each call is a span: name, start, end, the span that caused it, and the
benchmark operation (one CLI call or library call) it belongs to.  A
layer's self time is its span's duration minus the time covered by the
wrapped calls inside it.  Aggregates are kept for every traced call;
the spans themselves are kept in memory only when asked for and written
out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, function): the span is named "<module>.<function>".
FUNCTIONS = (
    ("exchange", "mutate_matrix"),
    ("exchange", "skew_symmetrizer"),
    ("seeds", "mutate_seed"),
    ("seeds", "cone_key"),
    ("seeds", "verify_seed"),
    ("seeds", "unimodular_inverse"),
    ("explorer", "explore"),
    ("explorer", "save_fan"),
    ("explorer", "load_fan"),
    ("explorer", "save_fan_file"),
    ("explorer", "load_fan_file"),
    ("explorer", "cone_contains"),
    ("explorer", "interiors_disjoint"),
    ("explorer", "find_negative_orthant"),
    ("render", "render_svg"),
    ("render", "arc_polyline"),
    ("rank3", "fan_type"),
    ("rank3", "vertex_type"),
    ("rank3", "find_band_index"),
    ("rank3", "limit_rays"),
    ("chebyshev", "nu_ratio"),
    ("chebyshev", "chebyshev_u"),
    ("rank2", "limit_vectors"),
)


class Tracer:
    def __init__(self, keep_spans: bool = False):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent name, child name) -> calls
        self.raised = Counter()  # (name, exception type) -> count
        self.counters = Counter()
        self.maxima = Counter()
        self.op = -1  # index of the benchmark operation in progress
        self.keep_spans = keep_spans
        self.names: list[str] = []
        self.spans = {k: array("q") for k in ("id", "parent", "name", "op")}
        self.times = {k: array("d") for k in ("start", "end")}
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._undo: list = []

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name_of, on_return=None):
        stack = self._stack
        perf = time.perf_counter
        name_ids: dict[str, int] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self.self_s[name] += dur - frame[2]
                self.calls[name] += 1
                if parent is not None:
                    parent[2] += dur
                    self.edges[parent[1], name] += 1
                if self.keep_spans:
                    if name not in name_ids:
                        name_ids[name] = self._name_id(name)
                    self._record(sid, parent[0] if parent else -1,
                                 name_ids[name], t0, t1)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _record(self, sid, parent, name_id, t0, t1):
        self.spans["id"].append(sid)
        self.spans["parent"].append(parent)
        self.spans["name"].append(name_id)
        self.spans["op"].append(self.op)
        self.times["start"].append(t0)
        self.times["end"].append(t1)

    def _rebind(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gfans" and not mod_name.startswith("gfans."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _new_cones(self, fan):
        self.counters["explorer.new_cones"] += len(fan.cones) - 1

    def _band(self, result):
        n = result[0]
        self.maxima["rank3.max_band_index"] = max(
            self.maxima["rank3.max_band_index"], n)

    # -- installation ----------------------------------------------------

    def install(self):
        import gfans.cli
        from gfans.quadratic import QuadraticNumber

        hooks = {"explore": self._new_cones, "find_band_index": self._band}
        for module, func in FUNCTIONS:
            original = getattr(sys.modules[f"gfans.{module}"], func)
            name = f"{module}.{func}"
            self._rebind(original, self._span(
                original, lambda args, name=name: name, hooks.get(func)))

        main = gfans.cli.main
        self._rebind(main, self._span(
            main, lambda args: f"cli.{args[0][0]}"))

        sign = QuadraticNumber.sign
        QuadraticNumber.sign = self._span(sign, lambda args: "quadratic.sign")
        self._undo.append((QuadraticNumber, "sign", sign))

        post_init = QuadraticNumber.__post_init__
        counters = self.counters

        @functools.wraps(post_init)
        def counted(qn):
            counters["quadratic.constructions"] += 1
            return post_init(qn)

        QuadraticNumber.__post_init__ = counted
        self._undo.append((QuadraticNumber, "__post_init__", post_init))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        """Gzipped TSV: span, parent, name, op, start_s, end_s."""
        with gzip.open(path, "wt") as fh:
            fh.write("span\tparent\tname\top\tstart_s\tend_s\n")
            s, t = self.spans, self.times
            for i in range(len(s["id"])):
                fh.write(f"{s['id'][i]}\t{s['parent'][i]}\t"
                         f"{self.names[s['name'][i]]}\t{s['op'][i]}\t"
                         f"{t['start'][i]!r}\t{t['end'][i]!r}\n")
