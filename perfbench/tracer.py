"""Span recorder for the traced run.

The recorder wraps the public functions of each polarmorse module from
outside the program: it replaces the function in its defining module or
class and at every other place a polarmorse module binds it by name (for
example ``morse.expand_branches`` or ``polar.factor_qq``).  Each call
records a span (name, parent span, start, end, input), kept in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct child spans.

Only the process that installs the recorder is traced and there are no
threads, so one stack of open spans is enough.
"""

import importlib
import json
import time
from array import array

MODULES = ("fields", "poly", "series", "puiseux", "polar", "morse",
           "oracle", "report", "cli")

# (module, function or Class.method); the span name is "module.path".
TARGETS = (
    ("poly", "parse_poly"),
    ("poly", "factor_qq"),
    ("poly", "factor_univariate"),
    ("poly", "resultant"),
    ("poly", "gcd_qq"),
    ("poly", "minpoly_over"),
    ("polar", "singular_locus"),
    ("polar", "polar_equation"),
    ("polar", "check_genericity"),
    ("polar", "draw_generic_ell"),
    ("puiseux", "expand_branches"),
    ("series", "poly_at_series"),
    ("series", "LaurentSeries.__mul__"),
    ("series", "LaurentSeries.inverse"),
    ("fields", "ExtensionField.mul"),
    ("fields", "ExtensionField.inv"),
    ("morse", "analyze_symbolic"),
    ("morse", "affine_index"),
    ("morse", "infinity_index"),
    ("morse", "build_report"),
    ("oracle", "critical_points"),
    ("oracle", "classify_trajectories"),
    ("report", "to_json"),
    ("cli", "main"),
)

NAMES = tuple("%s.%s" % t for t in TARGETS)


def _rat_bits(x):
    """Largest numerator/denominator bit length in a nested field element."""
    if isinstance(x, tuple):
        return max((_rat_bits(c) for c in x), default=0)
    num = int(getattr(x, "numerator", x))
    den = int(getattr(x, "denominator", 1))
    return max(num.bit_length(), den.bit_length())


class Recorder:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.item = -1                  # input being processed
        self._idx = {n: i for i, n in enumerate(NAMES)}
        self._name = array("H")
        self._parent = array("l")
        self._item = array("l")
        self._start = array("d")
        self._end = array("d")
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.total_s = [0.0] * len(NAMES)
        self.counters = {"puiseux.target_order.max": 0,
                         "fields.tower_degree.max": 0,
                         "fields.coeff_bits.max": 0}
        self._stack = []                # [name index, span id, child time]
        self._patches = []

    # -- installation ---------------------------------------------------
    def install(self):
        mods = {m: importlib.import_module("polarmorse." + m) for m in MODULES}
        for (mod, path), name in zip(TARGETS, NAMES):
            owner = mods[mod]
            attr = path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(owner, cls)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(self._idx[name], orig)
            self._patch(owner, attr, wrapper)
            if owner is mods[mod]:
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, wrapper)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- recording --------------------------------------------------------
    def _wrap(self, idx, fn):
        stack = self._stack
        clock = time.perf_counter
        after = {"puiseux.expand_branches": self._after_expand}.get(NAMES[idx])

        def wrapper(*args, **kwargs):
            sid = len(self._start)
            self._name.append(idx)
            self._parent.append(stack[-1][1] if stack else -1)
            self._item.append(self.item)
            self._start.append(0.0)
            self._end.append(0.0)
            frame = [idx, sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self._start[sid] = t0
                self._end[sid] = t1
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[2]
                self.total_s[idx] += dur
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _after_expand(self, args, kwargs, branches):
        c = self.counters
        target = kwargs.get("target_order")
        if target is None:
            target = 2 * args[0].total_degree() + 2
        c["puiseux.target_order.max"] = max(c["puiseux.target_order.max"],
                                             target)
        for br in branches:
            c["fields.tower_degree.max"] = max(c["fields.tower_degree.max"],
                                               br.field.total_degree)
            bits = max((_rat_bits(v) for s in (br.x_series, br.y_series)
                        for v in s.coeffs.values()), default=0)
            c["fields.coeff_bits.max"] = max(c["fields.coeff_bits.max"], bits)

    # -- results ----------------------------------------------------------
    def metrics(self):
        """Per-layer metrics: ``<span>.calls`` and ``<span>.self_s`` for
        every traced function, plus the derived counters."""
        out = {}
        for i, name in enumerate(NAMES):
            out[name + ".calls"] = self.calls[i]
            out[name + ".self_s"] = self.self_s[i]
        n = self.calls
        ix = self._idx
        out["morse.analyze_symbolic.total_s"] = \
            self.total_s[ix["morse.analyze_symbolic"]]
        out.update(self.counters)
        out["puiseux.retries"] = self._retries()
        analyses = n[ix["morse.analyze_symbolic"]]
        out["polar.draws_per_analysis"] = (
            n[ix["polar.check_genericity"]] / analyses if analyses else 0.0)
        verifies = n[ix["oracle.classify_trajectories"]]
        out["oracle.solves_per_verify"] = (
            n[ix["oracle.critical_points"]] / verifies if verifies else 0.0)
        return out

    def _retries(self):
        """Expand calls beyond one per expansion center: expand_branches
        spans whose parent is an index computation, minus the number of
        such parents."""
        centers = {self._idx["morse.affine_index"],
                   self._idx["morse.infinity_index"]}
        expand = self._idx["puiseux.expand_branches"]
        parents = [self._parent[k] for k in range(len(self._name))
                   if self._name[k] == expand and self._parent[k] >= 0
                   and self._name[self._parent[k]] in centers]
        return len(parents) - len(set(parents))

    def span_times(self, name):
        """(item, duration) of every span called ``name``."""
        i = self._idx[name]
        return [(self._item[k], self._end[k] - self._start[k])
                for k in range(len(self._name)) if self._name[k] == i]

    def merge(self, doc):
        """Add the aggregates of a recorder dumped by ``dump`` (used for
        the CLI launcher, which traces in a child process)."""
        for i, name in enumerate(NAMES):
            self.calls[i] += doc["calls"][i]
            self.self_s[i] += doc["self_s"][i]
            self.total_s[i] += doc["total_s"][i]
        for k, v in doc["counters"].items():
            if k.endswith(".max"):
                self.counters[k] = max(self.counters[k], v)
            else:
                self.counters[k] += v
        base = len(self._start)
        for name, parent, item, start, end in doc["spans"]:
            self._name.append(name)
            self._parent.append(parent + base if parent >= 0 else -1)
            self._item.append(item if item >= 0 else self.item)
            self._start.append(start)
            self._end.append(end)

    def dump(self, path):
        spans = [[self._name[k], self._parent[k], self._item[k],
                  self._start[k], self._end[k]]
                 for k in range(len(self._name))]
        doc = {"names": list(NAMES), "calls": self.calls,
               "self_s": self.self_s, "total_s": self.total_s,
               "counters": self.counters, "spans": spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)
