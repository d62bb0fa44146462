"""Spans around calls into the library's public functions, recorded from
outside the library.

``install`` replaces every public function and public method of the traced
modules by a wrapper that opens a span on entry and closes it on exit, and
rebinds every name under which the package had imported the original (so a
``from .codes import code_from_generator`` in ``attack`` is traced too).

A span is (name, start, end, parent).  Spans are kept in memory and written
out by ``dump``, except those of the ``gf`` layer: the attack makes millions
of elementwise field calls, so ``gf`` calls are summed per (name, parent
name) instead of kept one by one.  Every call, ``gf`` included, also adds to
per-phase totals: calls, inclusive seconds, self seconds (inclusive minus the
time of the spans it caused) and an amount of work named per function.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("gf", "linalg", "codes", "grs", "scheme", "attack", "fileio")

# Phase 2 of the subcode search, a private function, traced so that its
# share of recover_key can be read off; absent once phase 2 is rewritten.
PRIVATE = {"attack": ("_extend_triple",)}


def _elements(args, kwargs, result):
    return int(np.size(result))


def _matrices(args, kwargs, result):
    return int(np.shape(result)[0])


def _square_rows(args, kwargs, result):
    return args[0].k * args[0].k


def _decoded(args, kwargs, result):
    return int(result is not None)


def _candidates(args, kwargs, result):
    return len(args[0])


# Work done per call, for the layer metrics that are ratios.
AMOUNT = {
    "gf.mul": _elements,
    "linalg.batched_rank": _matrices,
    "codes.square": _square_rows,
    "grs.decode": _decoded,
    "scheme.canonical_choice": _candidates,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.gf_by_parent: dict[tuple[int, int], list] = {}
        self.totals: dict[tuple[str, str], list] = {}
        self.phase = "none"
        self._stack: list[list] = []  # [name_id, start, child seconds, span index]
        self._open: dict[int, int] = {}
        self._t0 = clock()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        keep = not name.startswith("gf.")
        amount = AMOUNT.get(name)
        stack, opened, perf = self._stack, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if keep:
                index = len(self.spans)
                self.spans.append(None)
            frame = [nid, 0.0, 0.0, index]
            stack.append(frame)
            opened[nid] = opened.get(nid, 0) + 1
            result, returned = None, False
            frame[1] = start = perf()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf()
                stack.pop()
                depth = opened[nid] = opened[nid] - 1
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                if keep:
                    self.spans[index] = (nid, start - self._t0, end - self._t0, _enclosing_span(stack))
                else:
                    key = (nid, parent[0] if parent is not None else -1)
                    agg = self.gf_by_parent.get(key)
                    if agg is None:
                        agg = self.gf_by_parent[key] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
                tot = self.totals.get((self.phase, name))
                if tot is None:
                    tot = self.totals[(self.phase, name)] = [0, 0.0, 0.0, 0]
                tot[0] += 1
                if depth == 0:
                    tot[1] += dur  # a re-entrant call lies inside the outer one
                tot[2] += dur - frame[2]
                if amount is not None and returned:
                    tot[3] += amount(args, kwargs, result)

        return traced

    def total(self, phase: str, name: str) -> tuple[int, float, float, int]:
        """(calls, inclusive s, self s, amount) of ``name`` in ``phase``."""
        return tuple(self.totals.get((phase, name), (0, 0.0, 0.0, 0)))

    def dump(self, path) -> None:
        doc = {
            "names": self.names,
            "spans": [[n, round(s * 1e6, 1), round(e * 1e6, 1), p] for n, s, e, p in self.spans],
            "span_fields": ["name", "start_us", "end_us", "parent_span"],
            "gf_by_parent": [[n, p, c, round(s, 6)] for (n, p), (c, s) in self.gf_by_parent.items()],
            "gf_fields": ["name", "parent_name (-1: none)", "calls", "seconds"],
            "totals": [[ph, nm, *v] for (ph, nm), v in self.totals.items()],
            "total_fields": ["phase", "name", "calls", "inclusive_s", "self_s", "amount"],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _enclosing_span(stack) -> int:
    for frame in reversed(stack):
        if frame[3] >= 0:
            return frame[3]
    return -1


def install(tracer: Tracer, package: str = "grs_squarebreak") -> int:
    """Wrap the public functions and methods of every traced module of
    ``package`` (already imported); returns the number wrapped."""
    originals: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in list(vars(mod).items()):
            wanted = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and wanted:
                wrapped = tracer.wrap(f"{layer}.{attr.lstrip('_')}", obj)
                originals[id(obj)] = wrapped
                setattr(mod, attr, wrapped)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        setattr(obj, meth, tracer.wrap(f"{layer}.{meth}", fn))
    # Names bound by ``from module import function`` elsewhere in the package.
    for modname, mod in list(sys.modules.items()):
        if modname == package or modname.startswith(package + "."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    setattr(mod, attr, originals[id(obj)])
    return len(originals)
