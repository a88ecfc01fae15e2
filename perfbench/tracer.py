"""Per-layer tracing of bergmanlab from outside the package.

``Tracer.install()`` replaces each traced public function with a wrapper in
every bergmanlab module namespace that holds it, which is where its callers
look it up, and ``uninstall()`` puts the originals back. A wrapper records a
span (name, start, end, parent, request id) in memory and bumps the layer's
work counters; the arguments and the return value pass through untouched,
so traced results are byte-identical to untraced ones.

Self time of a span is its duration minus the time its direct child spans
cover. Summed over all spans, self time accounts for the traced requests'
wall time.
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from bergmanlab import carleson, condexp, geometry, lattice, measures, operators

REQUEST = "bench.request"


def _points_of_arg(index):
    def count(args, kwargs, result):
        return {"points": np.size(args[index])}
    return count


def _orbit_points(args, kwargs, result):
    phi, _, zs = args[:3]
    n = np.size(zs)
    return {"points": n, "orbit_points": n * phi.multiplicity}


def _lattice_points(args, kwargs, result):
    return {"points": result.size}


def _family_members(args, kwargs, result):
    return {"members": len(result)}


# (span name, module, attribute, counter function or None)
FUNCTIONS = (
    ("geometry.test_function", geometry, "test_function", _points_of_arg(1)),
    ("geometry.kernel_power_modulus", geometry, "kernel_power_modulus", _points_of_arg(1)),
    ("measures.bergman_norm", measures, "bergman_norm", None),
    ("measures.measure_of_disk", measures, "measure_of_disk", None),
    ("condexp.cond_expect_values", condexp, "cond_expect_values", _orbit_points),
    ("lattice.build_lattice", lattice, "build_lattice", _lattice_points),
    ("carleson.build_family", carleson, "build_family", _family_members),
    ("carleson.psi_transform", carleson, "psi_transform", None),
    ("carleson.psi_sup", carleson, "psi_sup", None),
    ("carleson.disk_constant", carleson, "disk_constant", None),
    ("carleson.test_constant", carleson, "test_constant", None),
    ("carleson.certify", carleson, "certify", None),
    ("operators.opnorm_estimate", operators, "opnorm_estimate", None),
    ("operators.boundedness_criterion", operators, "boundedness_criterion", None),
    ("operators.multiplication_criterion", operators, "multiplication_criterion", None),
)
INTEGRATE = "measures.integrate"
QUADRATURE = "measures.build_quadrature"
COUNTERS = (
    "geometry.test_function.points",
    "geometry.kernel_power_modulus.points",
    "condexp.cond_expect_values.points",
    "condexp.cond_expect_values.orbit_points",
    "lattice.build_lattice.points",
    "carleson.build_family.members",
    f"{INTEGRATE}.points",
    f"{QUADRATURE}.hits",
    f"{QUADRATURE}.misses",
    f"{QUADRATURE}.miss_s",
    "measures.quad_cache_mb_computed",
)


def _measure_classes():
    pending, seen = [measures.Measure], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "integrate" in vars(cls) and cls is not measures.Measure]


def _rule_mb(rule):
    arrays = (rule.nodes, rule.weights, rule.radial_sq, rule.radial_weights)
    return sum(a.nbytes for a in arrays) / 2**20


class Tracer:
    """Spans and work counters for the requests run while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request id]
        self.counts = defaultdict(float)
        self._stack = []
        self._request_id = None
        self._restore = []       # (namespace, attribute, original)

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self._request_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, request_id):
        """Root span of one request; layer spans opened inside belong to it."""
        self._request_id = request_id
        record = self._open(REQUEST)
        try:
            yield
        finally:
            self._close(record)
            self._request_id = None

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result
        return traced

    def _wrap_integrate(self, fn):
        """Measure.integrate, counting every point the integrand is evaluated at."""
        counts = self.counts

        def integrate(measure, g, *args, **kwargs):
            if callable(g) and not getattr(g, "_perfbench_counted", False):
                inner = g

                def g(z):
                    counts[f"{INTEGRATE}.points"] += np.size(z)
                    return inner(z)
                g._perfbench_counted = True
            return fn(measure, g, *args, **kwargs)
        return self._wrap(INTEGRATE, integrate, None)

    def _wrap_quadrature(self, fn):
        """build_quadrature, splitting calls into cache hits and misses."""
        info = fn.cache_info
        counts = self.counts

        def build_quadrature(*args, **kwargs):
            misses = info().misses
            t0 = time.perf_counter()
            rule = fn(*args, **kwargs)
            if info().misses > misses:
                counts[f"{QUADRATURE}.misses"] += 1
                counts[f"{QUADRATURE}.miss_s"] += time.perf_counter() - t0
                counts["measures.quad_cache_mb_computed"] += _rule_mb(rule)
            else:
                counts[f"{QUADRATURE}.hits"] += 1
            return rule
        return self._wrap(QUADRATURE, build_quadrature, None)

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "bergmanlab" or name.startswith("bergmanlab."))]
        found = False
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not referenced by any bergmanlab module")

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        for name, module, attr, counter in FUNCTIONS:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._wrap(name, original, counter))
        original = measures.build_quadrature
        self._replace_everywhere(original, self._wrap_quadrature(original))
        for cls in _measure_classes():
            original = vars(cls)["integrate"]
            self._restore.append((cls, "integrate", original))
            setattr(cls, "integrate", self._wrap_integrate(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def span_totals(self):
        """{span name: [calls, inclusive seconds, self seconds]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[index]
        return dict(totals)

    def layer_values(self):
        """Flat {metric name: value} of calls, seconds and counters per span name.

        Every span name and counter has an entry, zero when nothing ran.
        """
        names = [f[0] for f in FUNCTIONS] + [INTEGRATE, QUADRATURE, REQUEST]
        values = {f"{n}.{m}": 0 for n in names for m in ("calls", "s", "self_s")}
        values.update({name: 0 for name in COUNTERS})
        values.update(self.counts)
        totals = self.span_totals()
        for name, (calls, inclusive, self_s) in totals.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.s"] = inclusive
            values[f"{name}.self_s"] = self_s
        values["carleson.family_members"] = values.pop("carleson.build_family.members")
        values["trace.spans"] = len(self.spans)
        values["trace.self_total_s"] = sum(t[2] for t in totals.values())
        return values

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, request_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request_id}) + "\n")


def span_cost_s(samples=20000):
    """Measured cost of one traced call of a no-op, for the overhead estimate."""
    tracer = Tracer()
    noop = tracer._wrap("noop", lambda: None, None)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    return (time.perf_counter() - t0) / samples
