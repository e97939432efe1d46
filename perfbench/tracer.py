"""Layer tracing from outside the program: spans around the public functions.

The tracer replaces each traced function at every place a quadunitary module
has bound it (its home module, the modules that imported it by name, and the
package namespace), so a call is seen whichever name the caller used.  It
touches no source file.  Spans are kept in flat arrays in memory and written
to one file when the traced process ends; run.py reads them back and
reduces them to self times with ``self_times``.

Span file layout: one JSON header line (span names, counters, largest sieve
limit, per-check times, factor_int cache statistics, run id), then the raw
bytes of four arrays of equal length: name index ('i'), parent index ('q',
-1 for a root span), start and end ('d', perf_counter seconds).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = (
    "quadunitary",
    "quadunitary.rings",
    "quadunitary.primes",
    "quadunitary.factoring",
    "quadunitary.radicals",
    "quadunitary.udf",
    "quadunitary.search",
    "quadunitary.theorems",
    "quadunitary.cli",
)

# (home module, attribute or Class.attribute, span metric, call counter).
# A span metric of None counts calls without timing them: these functions are
# called millions of times and are cheap, so a span would cost more than them.
SITES = (
    ("quadunitary.search", "iter_sector_elements", "rings.enumerate_s", "rings.elements"),
    ("quadunitary.rings", "Ring.parse", "rings.parse_s", None),
    ("quadunitary.primes", "primes_up_to", "primes.sieve_s", None),
    ("quadunitary.primes", "prime_above", None, "primes.prime_above_calls"),
    ("quadunitary.primes", "is_prime", None, "primes.is_prime_calls"),
    ("quadunitary.factoring", "factor_element", "factoring.factor_element_s", "factoring.factor_element_calls"),
    ("quadunitary.factoring", "factor_int", "factoring.factor_int_s", "factoring.factor_int_calls"),
    ("quadunitary.radicals", "RadicalValue.__mul__", None, "radicals.mul_calls"),
    ("quadunitary.radicals", "RadicalValue.to_json_terms", "radicals.json_s", None),
    ("quadunitary.radicals", "RadicalValue.from_json_terms", "radicals.json_s", None),
    ("quadunitary.udf", "i_star", "udf.i_star_s", "udf.i_star_calls"),
    ("quadunitary.udf", "delta_star_oracle", "udf.oracle_s", "udf.oracle_calls"),
    ("quadunitary.udf", "sigma_star_int", "udf.sigma_star_int_s", None),
    ("quadunitary.udf", "zeta_bound_check", "udf.zeta_s", None),
    ("quadunitary.search", "signature_hits_multi", "search.signatures_s", None),
    ("quadunitary.search", "search_signatures", "search.signatures_s", None),
    ("quadunitary.search", "Signature.witnesses", "search.witnesses_s", None),
    ("quadunitary.search", "run_search", "search.run_search_s", None),
    ("quadunitary.theorems", "run_check", "theorems.self_s", None),
    ("quadunitary.cli", "main", "cli.overhead_s", None),
)

# Every span metric, in report order; self times of these plus the remainder
# add up to the traced wall time.
SPAN_METRICS = tuple(dict.fromkeys(s[2] for s in SITES if s[2]))
COUNT_METRICS = tuple(s[3] for s in SITES if s[3])


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.sieve_limit = 0
        self.check_s: dict[str, float] = {}
        self._factor_int = None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self.stack.pop()
        return t - self.start[idx]

    def _record_check(self, args, kwargs, dur: float) -> None:
        key = f"theorems.{args[0] if args else kwargs['check_id']}_s"
        self.check_s[key] = self.check_s.get(key, 0.0) + dur

    def _record_sieve(self, args, kwargs, dur: float) -> None:
        self.sieve_limit = max(self.sieve_limit, args[0] if args else kwargs["limit"])

    def wrap(self, fn, span: str | None, counter: str | None, on_close=None):
        """Wrap fn to count calls and/or record a span; on_close(args, kwargs, seconds)."""
        counts = self.counts
        if counter:
            counts[counter] = 0
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted
        nid = self._name_id(span)
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so time spent by the consumer between
            # items is not charged to the generator.
            @functools.wraps(fn)
            def gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    if counter:
                        counts[counter] += 1
                    yield item
            return gen

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if counter:
                counts[counter] += 1
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self._close(idx)
                if on_close is not None:
                    on_close(args, kwargs, dur)
        return timed

    def install(self) -> None:
        """Replace every traced function at each binding site in the package."""
        mods = [importlib.import_module(m) for m in MODULES]
        self._factor_int = sys.modules["quadunitary.factoring"].factor_int
        hooks = {"run_check": self._record_check, "primes_up_to": self._record_sieve}
        for home, path, span, counter in SITES:
            owner = sys.modules[home]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(raw.__func__, span, counter)))
                    continue
                wrapped = self.wrap(raw, span, counter)
                # aliases such as __rmul__ = __mul__ are the same site
                for name, value in list(vars(cls).items()):
                    if value is raw:
                        setattr(cls, name, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(original, span, counter, hooks.get(path))
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def dump(self, path: str) -> None:
        cache = {"hits": 0, "misses": 0}
        if self._factor_int is not None:
            info = self._factor_int.cache_info()
            cache = {"hits": info.hits, "misses": info.misses}
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "counts": self.counts,
            "sieve_limit": self.sieve_limit,
            "check_s": self.check_s,
            "factor_int_cache": cache,
            "spans": len(self.start),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def load(path: str) -> tuple[dict, list[tuple[str, int, float, float]]]:
    """Read a span file: (header, [(name, parent, start, end), ...])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "q", "d", "d"):
            arr = array(code)
            arr.frombytes(fh.read(n * arr.itemsize))
            arrays.append(arr)
    names = header["names"]
    name, parent, start, end = arrays
    return header, [(names[name[i]], parent[i], start[i], end[i]) for i in range(n)]


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of its children's intervals.

    spans is a list of (name, parent index or -1, start, end).  Children are
    clipped to their parent's interval, and overlapping children are counted
    once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def reduce_spans(spans) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals
