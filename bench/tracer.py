"""Span tracer for the vburgers benchmark, built only from the benchmark's files.

Inside ``with tracer.installed():`` every public function of the ``vburgers``
package is replaced at every name it is bound to (the defining module and each
importing module, e.g. ``vburgers.scheme.solve_transport`` and
``vburgers.transport.solve_transport`` share one wrapper), and so are
``ScalarField`` construction, the ``at``/``dt_at`` methods of the forcing
classes and ``numpy.fft.rfftn``/``irfftn``.  Leaving the block restores the
originals.  No source file of the package changes.

Each call becomes a span (name, start, end, parent) held in flat in-memory
arrays and written out by ``save`` when the run ends.  Self time and per-layer
totals are derived from the spans afterwards.  A span's layer is the module
that defines the function; the two numpy transforms belong to ``fields``.
"""
from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
import types
from array import array

import numpy as np

PASS_SPAN = "bench.pass"


def _fft_count(args, kwargs, result):
    """Computed transform work: bytes read and written, about 5 N log2 N ops each."""
    a = np.asarray(args[0])
    real = a if np.isrealobj(a) else result
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    n = math.prod(s) if s is not None else real.size
    return {"fft_bytes": a.nbytes + result.nbytes, "fft_ops": (real.size // n) * 5.0 * n * math.log2(n)}


def _steps_count(args, kwargs, result):
    return {"steps": args[0].n_steps}


def _iters_count(args, kwargs, result):
    return {"iters": len(result[0]) - 1}


def _pairs_count(args, kwargs, result):
    return {"seminorm_pairs": result.pairs}


# counters recorded at the boundary where the work happens, keyed by span name
_COUNTERS = {
    "fields.rfftn": _fft_count,
    "fields.irfftn": _fft_count,
    "transport.solve_transport": _steps_count,
    "scheme.run_picard": _iters_count,
    "norms.iso_seminorm_array": _pairs_count,
    "norms.parabolic_seminorm_array": _pairs_count,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._sites = None

    # ------------------------------------------------------------------ record

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        count = _COUNTERS.get(name)
        clock = time.perf_counter
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        counters = self.counters

        # begin/finish inlined: this runs on every call of the package
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0.0) + val
            return result

        return functools.update_wrapper(traced, fn)

    # ----------------------------------------------------------------- install

    def _bindings(self) -> list:
        """(owner, attribute, original, wrapper) for every site the tracer replaces."""
        from vburgers import fields, forcing

        mods = [m for n, m in sorted(sys.modules.items()) if n == "vburgers" or n.startswith("vburgers.")]
        wrappers = {}
        sites = []
        for m in mods:
            for attr, val in vars(m).items():
                if attr.startswith("_") or not isinstance(val, types.FunctionType):
                    continue
                if not val.__module__.startswith("vburgers."):
                    continue
                if val not in wrappers:
                    layer = val.__module__.rsplit(".", 1)[-1]
                    wrappers[val] = self.wrap(f"{layer}.{val.__name__}", val)
                sites.append((m, attr, val, wrappers[val]))

        post_init = fields.ScalarField.__post_init__
        sites.append((fields.ScalarField, "__post_init__", post_init, self.wrap("fields.ScalarField", post_init)))
        classes = {
            cls
            for m in mods
            for cls in vars(m).values()
            if isinstance(cls, type) and issubclass(cls, forcing.Forcing)
        }
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            for meth in ("at", "dt_at"):
                if meth in vars(cls):
                    fn = vars(cls)[meth]
                    sites.append((cls, meth, fn, self.wrap(f"forcing.{meth}", fn)))
        for fft in ("rfftn", "irfftn"):
            fn = getattr(np.fft, fft)
            sites.append((np.fft, fft, fn, self.wrap(f"fields.{fft}", fn)))
        return sites

    @contextlib.contextmanager
    def installed(self):
        """Route the package's public functions through the wrappers inside the block."""
        if self._sites is None:
            self._sites = self._bindings()
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._sites:
                setattr(owner, attr, original)

    # ----------------------------------------------------------------- analyse

    def arrays(self):
        """Copies of the span arrays: (name_id, start, end, parent)."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
        )

    def save(self, path: str) -> None:
        nid, st, en, par = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, start=st, end=en, parent=par)


class SpanSet:
    """The spans of one pass: ids ``p0`` (the pass span) up to ``p1``."""

    def __init__(self, tracer: Tracer, arrays, p0: int, p1: int):
        nid, st, en, par = arrays
        self.names = tracer.names
        self.nid = nid[p0:p1]
        self.dur = en[p0:p1] - st[p0:p1]
        par = par[p0:p1] - p0
        par[par < 0] = -1
        self.parent = par
        has = par >= 0
        self.self_time = self.dur - np.bincount(par[has], weights=self.dur[has], minlength=p1 - p0)
        self.wall = float(self.dur[0])

    def _select(self, keep) -> np.ndarray:
        return np.isin(self.nid, [i for i, name in enumerate(self.names) if keep(name)])

    def mask(self, *names: str) -> np.ndarray:
        return self._select(lambda name: name in names)

    def layer_mask(self, *layers: str) -> np.ndarray:
        return self._select(lambda name: name.split(".", 1)[0] in layers)

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans in ``mask`` with no ancestor in ``mask``, walking up one level per step."""
        covered = np.zeros(mask.size, dtype=bool)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            covered[live] |= mask[anc[live]]
            anc[live] = self.parent[anc[live]]
            live = anc >= 0
        return mask & ~covered

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def inclusive(self, *names: str) -> float:
        return float(self.dur[self.outermost(self.mask(*names))].sum())

    def layer_inclusive(self, *layers: str) -> float:
        return float(self.dur[self.outermost(self.layer_mask(*layers))].sum())

    def layer_self(self, *layers: str) -> float:
        return float(self.self_time[self.layer_mask(*layers)].sum())
