"""Out-of-tree tracing of favard's layers for the benchmark's traced pass.

The tracer rebinds public functions from outside the program: every
``favard.*`` module attribute that refers to a traced function is replaced
by a wrapper, so ``from .x import y`` bindings, calls through a module
(``linalg.mat_mul``) and ``Polynomial.__mul__`` are all caught, and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Three kinds of wrapper keep the cost and the memory bounded:

- span: pipeline stages, solvers and word walks (a few thousand calls per
  pass).  Each call is kept as a span (id, name, start, end, parent, case,
  self time); self time is the duration minus the time covered by child
  spans and kernels.
- kernel: dense matmul/matvec and the other ``favard.linalg`` helpers (up
  to ~1.5*10^5 calls per pass).  Calls and time are summed per name and the
  time counts as covered for the enclosing span; mat_mul and mat_vec also
  count scalar products from operand shapes and the share whose factors
  are both nonzero.
- counter: ``Polynomial.__mul__`` and ``moments.apply`` (~10^4 calls per
  pass); only calls are counted, their time stays in the caller.
"""

import functools
import json
import sys
import time

# (module, attribute, span name); names sharing a prefix form one layer metric
SPANS = (
    ("cli", "main", "cli.main"),
    ("moments", "from_catalog", "moments.catalog"),
    ("moments", "from_samples", "moments.catalog"),
    ("moments", "from_file", "moments.catalog"),
    ("moments", "check_state_positivity", "moments.positivity"),
    ("moments", "moment_file_text", "moments.file_write"),
    ("gradation", "build_gradation", "gradation.build"),
    ("gradation", "project_onto_level", "gradation.project"),
    ("gradation", "termination_level", "gradation.termination"),
    ("cap", "extract_cap", "cap.extract"),
    ("cap", "verify_jacobi_relation", "cap.verify"),
    ("cap", "verify_adjointness", "cap.verify"),
    ("cap", "verify_commutators", "cap.verify"),
    ("jacobi", "analyze", "jacobi.analyze"),
    ("jacobi", "extract_jacobi", "jacobi.extract"),
    ("jacobi", "build_U", "jacobi.build_U"),
    ("jacobi", "verify_favard_conditions", "jacobi.favard_conditions"),
    ("jacobi", "jacobi_file_text", "jacobi.file_write"),
    ("jacobi", "load_jacobi_file", "jacobi.file_read"),
    ("fock", "build_fock", "fock.build"),
    ("fock", "moment_of_word", "fock.moment"),
    ("fock", "roundtrip_report", "fock.roundtrip"),
    ("linalg", "solve_min_norm", "linalg.solve"),
    ("linalg", "nullspace", "linalg.eig"),
    ("linalg", "rank", "linalg.eig"),
    ("linalg", "psd_floor", "linalg.eig"),
)
COUNTERS = (("moments", "apply", "moments.apply"),)
PRODUCT_KERNELS = ("mat_mul", "mat_vec")


def _favard_modules():
    return [m for n, m in sys.modules.items() if n == "favard" or n.startswith("favard.")]


def _nonzero_products(a, b_rows):
    """Scalar products a @ b and how many have both factors nonzero.

    b_rows is the list of rows of b (one-element rows for a vector).
    """
    if not a or not b_rows:
        return 0, 0
    cols = len(b_rows[0])
    total = len(a) * len(b_rows) * cols
    nnz_a = [0] * len(b_rows)
    for row in a:
        for col, x in enumerate(row):
            if x != 0:
                nnz_a[col] += 1
    useful = sum(n * sum(1 for y in row if y != 0) for n, row in zip(nnz_a, b_rows))
    return total, useful


class Tracer:
    """Span and count recorder; install() before the traced pass, uninstall() after."""

    def __init__(self):
        self.case = -1  # index of the case being run; set by the caller
        self.spans = []  # (id, name, start, end, parent id, case, self seconds, outermost)
        self.kernels = {}  # name -> [calls, seconds]
        self.counts = {}  # name -> calls
        self.products = [0, 0]  # scalar products, products with both factors nonzero
        self._stack = []  # open spans: [id, start, covered seconds]
        self._active = {}  # span name -> open calls, for outermost-only inclusive time
        self._next_id = 0
        self._undo = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn):
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            outermost = not active.get(name)
            active[name] = active.get(name, 0) + 1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.spans.append(
                    (sid, name, frame[1], end, parent, self.case, duration - frame[2], outermost)
                )

        return wrapper

    def _kernel(self, name, fn, products):
        stack, clock = self._stack, time.perf_counter
        record = self.kernels.setdefault(name, [0, 0.0])
        tally = self.products

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                record[0] += 1
                record[1] += duration
                if stack:
                    stack[-1][2] += duration
            if products:  # after the call, which has validated the shapes
                a, b = args[0], args[1]
                rows = b if name.endswith("mat_mul") else [[x] for x in b]
                total, useful = _nonzero_products(a, rows)
                tally[0] += total
                tally[1] += useful
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ rebinding

    def _rebind(self, original, replacement):
        for module in _favard_modules():
            hits = [attr for attr, value in vars(module).items() if value is original]
            for attr in hits:
                setattr(module, attr, replacement)
                self._undo.append((module, attr, original))

    def install(self):
        modules = {m.__name__.split(".")[-1]: m for m in _favard_modules()}
        wrapped = {}
        for module, attr, name in SPANS:
            original = getattr(modules[module], attr)
            wrapped[original] = self._span(name, original)
        for module, attr, name in COUNTERS:
            original = getattr(modules[module], attr)
            wrapped[original] = self._counter(name, original)
        linalg = modules["linalg"]
        for attr in linalg.__all__:
            original = getattr(linalg, attr)
            if callable(original) and original not in wrapped:
                wrapped[original] = self._kernel(f"linalg.{attr}", original, attr in PRODUCT_KERNELS)
        for original, replacement in wrapped.items():
            self._rebind(original, replacement)
        poly_cls = modules["poly"].Polynomial
        mul = poly_cls.__mul__
        poly_cls.__mul__ = self._counter("poly.mul", mul)
        self._undo.append((poly_cls, "__mul__", mul))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- results

    def _inclusive(self, name):
        return sum(s[3] - s[2] for s in self.spans if s[1] == name and s[7])

    def _calls(self, name):
        return sum(1 for s in self.spans if s[1] == name)

    def layer_metrics(self, overhead_ratio):
        """The per-layer metrics of BENCHMARK.json, for the traced pass."""
        kern = self.kernels
        total, useful = self.products
        return {
            "moments.positivity_s": (self._inclusive("moments.positivity"), "s"),
            "moments.positivity_calls": (self._calls("moments.positivity"), "count"),
            "moments.apply_calls": (self.counts["moments.apply"], "count"),
            "poly.mul_calls": (self.counts["poly.mul"], "count"),
            "moments.catalog_s": (self._inclusive("moments.catalog"), "s"),
            "gradation.build_s": (self._inclusive("gradation.build"), "s"),
            "cap.extract_s": (self._inclusive("cap.extract"), "s"),
            "cap.verify_s": (self._inclusive("cap.verify"), "s"),
            "jacobi.extract_s": (self._inclusive("jacobi.extract"), "s"),
            "jacobi.favard_conditions_s": (self._inclusive("jacobi.favard_conditions"), "s"),
            "jacobi.favard_conditions_calls": (self._calls("jacobi.favard_conditions"), "count"),
            "jacobi.file_write_s": (self._inclusive("jacobi.file_write"), "s"),
            "jacobi.file_read_s": (self._inclusive("jacobi.file_read"), "s"),
            "fock.build_s": (self._inclusive("fock.build"), "s"),
            "fock.moment_s": (self._inclusive("fock.moment"), "s"),
            "fock.moment_calls": (self._calls("fock.moment"), "count"),
            "linalg.mat_mul_s": (kern["linalg.mat_mul"][1], "s"),
            "linalg.mat_mul_calls": (kern["linalg.mat_mul"][0], "count"),
            "linalg.mat_vec_s": (kern["linalg.mat_vec"][1], "s"),
            "linalg.mat_vec_calls": (kern["linalg.mat_vec"][0], "count"),
            "linalg.scalar_products": (total, "count"),
            "linalg.product_nonzero_ratio": (useful / total if total else 1.0, "ratio"),
            "linalg.solve_s": (self._inclusive("linalg.solve"), "s"),
            "linalg.solve_calls": (self._calls("linalg.solve"), "count"),
            "linalg.eig_s": (self._inclusive("linalg.eig"), "s"),
            "cli.self_s": (sum(s[6] for s in self.spans if s[1] == "cli.main"), "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def span_table(self):
        """Per span name: calls, outermost inclusive seconds, self seconds."""
        table = {}
        for s in self.spans:
            row = table.setdefault(s[1], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += s[6]
            if s[7]:
                row["inclusive_s"] += s[3] - s[2]
        for name, (calls, seconds) in self.kernels.items():
            table[name] = {"calls": calls, "inclusive_s": seconds, "self_s": seconds}
        for name, calls in self.counts.items():
            table[name] = {"calls": calls}
        return table

    def write(self, path, case_names, origin):
        """The spans as JSON, times relative to origin."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "cases": case_names,
            "span_names": names,
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "case", "self_s"],
            "spans": [
                [s[0], index[s[1]], round(s[2] - origin, 7), round(s[3] - origin, 7), s[4], s[5], round(s[6], 7)]
                for s in sorted(self.spans)
            ],
        }
        path.write_text(json.dumps(doc) + "\n")
