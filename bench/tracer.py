"""Span tracer for the traced run, installed from the benchmark's side.

Each traced function is replaced at every binding site inside the
``primroots`` package: the module attribute and every ``from .x import f``
copy in the other modules (``artin.is_primitive_root_prime``,
``charsum.factor``, ``cli.multiplicative_order``, ...). Nothing in the
library is edited; the untraced run never imports this module.

Spans (name, start, end, parent, request id) are kept in flat arrays in
memory, written out at exit, and self time is computed from them: a span's
duration minus the durations of its direct children.
"""

import array
import sys
from time import perf_counter

# Functions recorded as spans: calls and self time.
SPANS = (
    ("special_primes", "sieve_primes"),
    ("factorize", "factor"),
    ("primroot", "is_primitive_root_prime"),
    ("primroot", "multiplicative_order"),
    ("primroot", "lift_primitive_root"),
    ("primroot", "least_primitive_root"),
    ("arith", "log_integral"),
    ("special_primes", "germain_primitive_root_test"),
    ("special_primes", "fermat_primitive_root_test"),
    ("special_primes", "germain_decompose"),
    ("charsum", "psi_divisor_dependent"),
    ("charsum", "psi_divisor_free"),
    ("charsum", "decompose_interval"),
    ("artin", "prime_counts"),
    ("artin", "least_prime_with_primitive_root"),
    ("artin", "conjecture_scan"),
    ("artin", "artin_constant"),
)

# Functions only counted: they are called so often, and are so short, that a
# span would cost more than the call. Their time stays in the caller's self time.
COUNTED = (
    ("arith", "check_natural"),
    ("arith", "jacobi"),
    ("factorize", "is_prime"),
)

# lru caches whose hit ratio is read from cache_info() deltas.
CACHES = (("factorize", "factor"), ("factorize", "is_prime"))

# Spans whose boolean results are counted, for a true ratio.
TRUE_RATIO = ("primroot.is_primitive_root_prime",)

# The three CLI stages: building and running the parser, the handler, the emit.
CLI_PARSE = "cli.parse"
CLI_EXECUTE = "cli.execute"
CLI_EMIT = "cli.emit"


def _label(module, attr):
    return f"{module}.{attr}"


def metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for module, attr in SPANS:
        label = _label(module, attr)
        names += [f"{label}.calls", f"{label}.self_s"]
        if (module, attr) in CACHES:
            names.append(f"{label}.hit_ratio")
        if label in TRUE_RATIO:
            names.append(f"{label}.true_ratio")
    for module, attr in COUNTED:
        label = _label(module, attr)
        names.append(f"{label}.calls")
        if (module, attr) in CACHES:
            names.append(f"{label}.hit_ratio")
    for stage in (CLI_PARSE, CLI_EXECUTE, CLI_EMIT):
        names += [f"{stage}.calls", f"{stage}.self_s"]
    names += [f"{CLI_EMIT}.bytes", "trace.overhead_frac"]
    return names


def metric_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class Tracer:
    """In-memory span store plus call counters for one worker process."""

    def __init__(self):
        self.labels = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.open = []
        self.request_id = -1
        self.counts = {}
        self.trues = {}
        self.emit_bytes = 0
        self._caches = {}
        self._cache_before = {}

    def span(self, label, fn, count_true=False):
        if label in self.labels:
            nid = self.labels.index(label)
        else:
            nid = len(self.labels)
            self.labels.append(label)
        name, parent, request = self.name, self.parent, self.request
        start, end, open_ = self.start, self.end, self.open
        trues = self.trues
        if count_true:
            trues.setdefault(label, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(open_[-1] if open_ else -1)
            request.append(tracer.request_id)
            end.append(0.0)
            open_.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                open_.pop()
            if count_true and result:
                trues[label] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, label, fn):
        counts = self.counts
        counts.setdefault(label, 0)

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def emit(self, fn):
        traced = self.span(CLI_EMIT, fn)
        tracer = self

        def wrapper(record, fmt, out=None):
            sink = out or sys.stdout
            before = sink.tell()
            try:
                return traced(record, fmt, out)
            finally:
                tracer.emit_bytes += sink.tell() - before

        return wrapper

    def parser(self, fn):
        build = self.span(CLI_PARSE, fn)
        tracer = self

        def wrapper(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = tracer.span(CLI_PARSE, parser.parse_args)
            return parser

        return wrapper

    def install(self):
        """Replace every binding of the traced functions in ``primroots``."""
        import primroots
        from primroots import arith, artin, charsum, cli, factorize, primroot, special_primes

        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in
                   (arith, artin, charsum, cli, factorize, primroot, special_primes)}
        self._caches = {_label(m, a): getattr(modules[m], a) for m, a in CACHES}
        self._cache_before = {label: fn.cache_info() for label, fn in self._caches.items()}
        wrappers = {}
        for module, attr in SPANS:
            fn = getattr(modules[module], attr)
            label = _label(module, attr)
            wrappers[id(fn)] = (fn, self.span(label, fn, count_true=label in TRUE_RATIO))
        for module, attr in COUNTED:
            fn = getattr(modules[module], attr)
            wrappers[id(fn)] = (fn, self.counter(_label(module, attr), fn))
        wrappers[id(cli.build_parser)] = (cli.build_parser, self.parser(cli.build_parser))
        wrappers[id(cli._execute)] = (cli._execute, self.span(CLI_EXECUTE, cli._execute))
        wrappers[id(cli.emit)] = (cli.emit, self.emit(cli.emit))
        for module in (primroots, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def summary(self, spans_path=None):
        """Per-layer counts, self times and ratios; writes the spans if asked."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        if spans_path:
            np.savez(spans_path, labels=np.array(self.labels), name=name,
                     parent=parent, request=np.frombuffer(self.request, dtype=np.int32),
                     start=start, end=end)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        n = len(self.labels)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=own, minlength=n)
        out = {}
        for nid, label in enumerate(self.labels):
            out[f"{label}.calls"] = int(calls[nid])
            out[f"{label}.self_s"] = float(self_s[nid])
        for label, hits in self.trues.items():
            out[f"{label}.true_hits"] = hits
        for label, count in self.counts.items():
            out[f"{label}.calls"] = count
        for label, fn in self._caches.items():
            before, after = self._cache_before[label], fn.cache_info()
            out[f"{label}.cache_hits"] = after.hits - before.hits
            out[f"{label}.cache_misses"] = after.misses - before.misses
        out[f"{CLI_EMIT}.bytes"] = self.emit_bytes
        return out
