"""Outside-in layer trace: spans around gkz's public functions.

``Tracer.install`` replaces each traced function at every name it is
looked up under (``gkz.verify.derivative_integral`` as well as
``gkz.evaluate.derivative_integral`` and ``gkz.derivative_integral``, the
imported ``gkz.symmetry.facet_normals``, the ``gkz.lattice.*`` module
attributes, ...) with a wrapper that records a span, and ``restore`` puts
every original back.  Spans carry a parent id; a layer's self time is its
span time minus the time of its child spans.  The program itself is not
changed.
"""

import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every traced function, by layer metric prefix
TRACED = (
    ("evaluate", "derivative_integral"),
    ("evaluate", "quad"),
    ("evaluate", "classical_solution"),
    ("evaluate", "gauss_2f1"),
    ("evaluate", "series_2f1"),
    ("evaluate", "appell_f4"),
    ("evaluate", "lauricella_fc"),
    ("lattice", "solve_unique"),
    ("lattice", "rank"),
    ("lattice", "det"),
    ("lattice", "smith_normal_form"),
    ("lattice", "kernel_basis_int"),
    ("configs", "catalog"),
    ("configs", "validate_configuration"),
    ("configs", "facet_normals"),
    ("configs", "to_standard_form"),
    ("symmetry", "find_symmetries"),
    ("symmetry", "compose"),
    ("transforms", "induced_transformation"),
    ("transforms", "apply"),
    ("transforms", "binomial_expansion_identity"),
    ("verify", "verify_pde"),
    ("verify", "verify_binomial_identity"),
    ("verify", "verify_linear_transformation"),
    ("cli", "canonical_json"),
)
# staticmethods, wrapped on their class
TRACED_STATIC = (("symmetry", "SymmetryGroup", "from_elements"),)
VERIFIERS = ("verify.verify_pde", "verify.verify_binomial_identity",
             "verify.verify_linear_transformation")


def _gkz_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "gkz" or key.startswith("gkz."))]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self.stack = []
        self.open_names = Counter()
        self.errors = Counter()  # (name, exception class name) -> count
        self.converged = 0
        self.passed = 0
        self.group_orders = 0
        self.solves_in_search = 0
        self.integrand_calls = 0
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        index = len(self.spans) - 1
        self.stack.append(index)
        self.open_names[name] += 1
        if name == "lattice.solve_unique" and self.open_names["symmetry.find_symmetries"]:
            self.solves_in_search += 1
        return index

    def _close(self, index, name):
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()
        self.open_names[name] -= 1

    def _record(self, name, result):
        if name == "evaluate.derivative_integral" and result.converged:
            self.converged += 1
        elif name in VERIFIERS and result.passed:
            self.passed += 1
        elif name == "symmetry.find_symmetries":
            self.group_orders += result.order

    def _counted(self, func):
        def counted(*args):
            self.integrand_calls += 1
            return func(*args)

        return counted

    def _wrap(self, name, fn):
        tracer = self
        # the callable handed to quad is the integrand
        counts_integrand = name == "evaluate.quad"

        def wrapper(*args, **kwargs):
            if counts_integrand:
                args = (tracer._counted(args[0]),) + args[1:]
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[name, type(exc).__name__] += 1
                raise
            finally:
                tracer._close(index, name)
            tracer._record(name, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        modules = _gkz_modules()
        for mod_name, attr in TRACED:
            home = sys.modules[f"gkz.{mod_name}"]
            original = getattr(home, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr in TRACED_STATIC:
            cls = getattr(sys.modules[f"gkz.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(f"{mod_name}.{attr}", original.__func__)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, staticmethod(wrapper))

    def restore(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- metrics ------------------------------------------------------------

    def self_times(self):
        """Per name: (calls, self seconds, list of span durations)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        own = defaultdict(float)
        durations = defaultdict(list)
        for i, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child[i]
            durations[name].append(end - start)
        return calls, own, durations

    def layer_metrics(self) -> dict:
        """The per-layer metrics, as {name: (value, unit)}."""
        calls, own, durations = self.self_times()

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("evaluate.derivative_integral", "evaluate.quad",
                     "evaluate.classical_solution", "evaluate.gauss_2f1",
                     "evaluate.series_2f1", "evaluate.appell_f4",
                     "evaluate.lauricella_fc", "lattice.solve_unique",
                     "lattice.rank", "lattice.det", "lattice.smith_normal_form",
                     "lattice.kernel_basis_int", "configs.catalog",
                     "configs.facet_normals", "transforms.apply"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (own[name], "s")
        for name in ("configs.validate_configuration", "configs.to_standard_form",
                     "symmetry.find_symmetries", "symmetry.from_elements",
                     "transforms.induced_transformation",
                     "transforms.binomial_expansion_identity", *VERIFIERS,
                     "cli.canonical_json"):
            out[f"{name}.self_s"] = (own[name], "s")
        integrals = durations["evaluate.derivative_integral"]
        out["evaluate.integral_p50_s"] = (
            statistics.median(integrals) if integrals else 0.0, "s")
        out["evaluate.integrand_calls"] = (self.integrand_calls, "count")
        out["evaluate.converged_ratio"] = (
            ratio(self.converged, calls["evaluate.derivative_integral"]), "1")
        out["evaluate.out_of_domain_ratio"] = (
            ratio(self.errors["evaluate.classical_solution", "OutOfDomain"],
                  calls["evaluate.classical_solution"]), "1")
        out["symmetry.compose.calls"] = (calls["symmetry.compose"], "count")
        out["symmetry.elements_per_solve"] = (
            ratio(self.group_orders, self.solves_in_search), "1")
        out["verify.pass_ratio"] = (
            ratio(self.passed, sum(calls[v] for v in VERIFIERS)), "1")
        return out
