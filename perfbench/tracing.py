"""In-process tracing of polydist's layers, done entirely from the outside.

``Tracer`` aggregates, per span name, the number of calls, the self time
(a span's duration minus the time its child spans cover) and the number of
calls that raised.  Hot methods see 10^5-10^6 calls per task, so nothing is
allocated per call: every wrapper pushes a child-time accumulator onto one
shared stack and folds its figures into a per-name slot when it returns.
Only spans opened with ``record=True`` (engines, passes) are also kept as
records with an id and a parent id.

``Patcher`` installs wrappers by identity: every attribute of a polydist
module, of a polydist class, or of a module-level dict (``cli._RUNNERS``)
that *is* the original object is rebound, because ``distrib`` binds
``bch`` and friends by name and the CLI registry holds direct references.
``restore()`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute path, counter) for every wrapped callable.
# A counter is (metric name, f): f(args, result) is added to the metric.
TARGETS = [
    ("scalars.ring_eq", "scalars", "PolyRing.__eq__", None),
    ("scalars.poly_init", "scalars", "SymbolicPoly.__init__",
     ("scalars.poly_init.terms", lambda args, result: len(args[2]))),
    ("scalars.poly_add", "scalars", "SymbolicPoly.__add__", None),
    ("scalars.poly_mul", "scalars", "SymbolicPoly.__mul__", None),
    ("words.concat", "words", "Word.__mul__", None),
    ("words.words_up_to_degree", "words", "words_up_to_degree", None),
    ("words.enumerate_lifts", "words", "enumerate_lifts", None),
    ("ncseries.mul", "ncseries", "NCSeries.__mul__", None),
    ("ncseries.add", "ncseries", "NCSeries.__add__", None),
    ("ncseries.exp", "ncseries", "NCSeries.exp", None),
    ("ncseries.log", "ncseries", "NCSeries.log", None),
    ("ncseries.apply", "ncseries", "AlgebraMorphism.apply",
     ("ncseries.apply.out_terms", lambda args, result: len(result.coeffs))),
    ("lie.exp_mod", "lie", "exp_mod", None),
    ("lie.log_mod", "lie", "log_mod", None),
    ("lie.bch", "lie", "bch", None),
    ("lie.reduce_mod_ideal", "lie", "reduce_mod_ideal", None),
    ("lie.genseries_mul", "lie", "GenSeries.__mul__", None),
    ("lie.polylog_part", "lie", "polylog_part", None),
    ("geometry.pi_morphism", "geometry", "pi_morphism", None),
    ("geometry.j_zeta_morphism", "geometry", "j_zeta_morphism", None),
    ("geometry.galois_twist_delta", "geometry", "galois_twist_delta", None),
    ("measures.moment_exact", "measures", "moment_exact", None),
    ("measures.pushforward_mul", "measures", "pushforward_mul", None),
    ("measures.random_measure", "measures", "random_measure", None),
    ("polylog_num.mpl_series", "polylog_num", "mpl_series", None),
    ("polylog_num.iterint_quadrature", "polylog_num", "iterint_quadrature", None),
    ("polylog_num.li_classical", "polylog_num", "li_classical", None),
    ("report.to_json_line", "report", "VerificationReport.to_json_line",
     ("report.json_bytes", lambda args, result: len(result))),
]

# numpy Legendre kernels, counted as polylog_num calls them (through its
# module attribute ``npleg``); numpy itself is left untouched.
NUMPY_KERNELS = ("legfit", "legval")


class Tracer:
    """Calls, self time and raises per span name, from one span stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, self_s, inclusive_s, raised]
        self.counters = {}  # counter metric name -> total
        self.spans = []  # recorded spans: id, parent, name, start, end
        self._stack = []  # child time of each open span
        self._ids = []  # ids of the open recorded spans

    def _slot(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name, fn, counter=None, record=False):
        """Return a wrapper of ``fn`` that accounts its calls to ``name``."""
        if record:
            def recorded(*args, **kwargs):
                with self.span(name, record=True):
                    return fn(*args, **kwargs)

            return functools.wraps(fn)(recorded)

        slot = self._slot(name)
        stack = self._stack
        clock = self.clock
        if counter is not None:
            key, count = counter
            self.counters.setdefault(key, 0)
        counters = self.counters

        def wrapper(*args, **kwargs):  # span()'s accounting, inlined: hot path
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                slot[3] += 1
                raise
            finally:
                dt = clock() - t0
                slot[0] += 1
                slot[1] += dt - stack.pop()
                slot[2] += dt
                if stack:
                    stack[-1] += dt
            if counter is not None:
                counters[key] += count(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def span(self, name, record=False):
        """A span around a block; with ``record`` it is also kept as a record."""
        slot = self._slot(name)
        stack = self._stack
        if record:
            entry = {"id": len(self.spans) + 1,
                     "parent": self._ids[-1] if self._ids else None,
                     "name": name}
            self.spans.append(entry)
            self._ids.append(entry["id"])
        stack.append(0.0)
        t0 = self.clock()
        try:
            yield
        except BaseException:
            slot[3] += 1
            raise
        finally:
            t1 = self.clock()
            dt = t1 - t0
            slot[0] += 1
            slot[1] += dt - stack.pop()
            slot[2] += dt
            if stack:
                stack[-1] += dt
            if record:
                self._ids.pop()
                entry.update(start=t0, end=t1)

    def get(self, name):
        """(calls, self_s, inclusive_s, raised) of a span name."""
        return tuple(self.stats.get(name, (0, 0.0, 0.0, 0)))


class _KernelProxy:
    """Stands in for a module, with some of its functions replaced."""

    def __init__(self, module, replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Patcher:
    """Rebinds every polydist reference to an object; restores them all."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo = []  # (setter, container, key, original)

    def replace(self, original, wrapper):
        """Rebind every polydist module, class or dict entry that is
        ``original`` to ``wrapper``; return how many were rebound."""
        names = {m.__name__ for m in self.modules}
        found = 0
        for module in self.modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(setattr, module, key, original, wrapper)
                    found += 1
                elif isinstance(value, type) and value.__module__ in names:
                    for attr, member in list(vars(value).items()):
                        if member is original:
                            self._set(setattr, value, attr, original, wrapper)
                            found += 1
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(dict.__setitem__, value, k, original, wrapper)
                            found += 1
        return found

    def _set(self, setter, container, key, original, wrapper):
        setter(container, key, wrapper)
        self._undo.append((setter, container, key, original))

    def restore(self):
        while self._undo:
            setter, container, key, original = self._undo.pop()
            setter(container, key, original)


def polydist_modules():
    """The loaded polydist package and its submodules."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "polydist" or name.startswith("polydist."))
    ]


def resolve(module, path):
    """The raw function object behind ``Class.method`` or ``function``."""
    head, _, tail = path.partition(".")
    obj = getattr(module, head)
    return vars(obj)[tail] if tail else obj


@contextmanager
def traced(tracer, runners):
    """Install wrappers for TARGETS, the numpy kernels and every engine in
    ``runners`` (the CLI registry); restore every original on exit."""
    import polydist

    patcher = Patcher(polydist_modules())

    def install(original, wrapper, what):
        if not patcher.replace(original, wrapper):
            raise LookupError(f"{what} is not bound in any polydist module")

    try:
        for name, module, path, counter in TARGETS:
            original = resolve(getattr(polydist, module), path)
            install(original, tracer.wrap(name, original, counter), name)
        for runner, fn in list(runners.items()):
            module = fn.__module__.rpartition(".")[2]
            name = f"{module}.{runner}"
            install(fn, tracer.wrap(name, fn, record=True), name)
        npleg = polydist.polylog_num.npleg
        kernels = {
            k: tracer.wrap(f"polylog_num.{k}", getattr(npleg, k))
            for k in NUMPY_KERNELS
        }
        install(npleg, _KernelProxy(npleg, kernels), "polylog_num.npleg")
        yield patcher
    finally:
        patcher.restore()
