"""Spans and counters around calls into ``hasseschmidt``, installed from
outside the package.

Each wrapped function records a span (op id, span id, parent span id,
name, start, end) into a list kept in memory.  When an op ends its spans
are folded into self time and calls per name, where self time is a
span's duration minus the durations of its direct children, and the
list is cleared: a pass makes about 10^5 to 10^6 spans, too many to
keep.  A few wrappers also read counters off
their arguments or results (terms in a product, pairs in a Leibniz
check, cells of a stacked matrix).  Nothing under ``src/`` is changed.

Names are patched where they are looked up, which is not always where
they are defined: ``compose_multi`` is called through the namespaces of
``formula`` and ``decompose``, ``apply_table`` through ``decompose``,
``leibniz_check`` through ``cli``.  Methods are replaced on their class;
classes themselves are never replaced, so ``isinstance`` checks keep
working.

The field operations and ``Series.__init__`` run millions of times per
pass; a span around each would distort every self time above them.
They are counted by ``Counting``, which a separate pass installs alone.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace


def _modules() -> SimpleNamespace:
    # import_module, because `hasseschmidt.decompose` as an attribute is
    # the re-exported function, not the module
    return SimpleNamespace(**{
        name: importlib.import_module(f"hasseschmidt.{name}")
        for name in ("cli", "serialize", "decompose", "formula", "derivations",
                     "series", "fields", "coefffield")
    })


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


class Tracer(_Patches):
    """Span recorder for one traced run; ``op`` opens the root span of an op."""

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.roots: Counter = Counter()  # op durations per root span name
        self.counts: Counter = Counter()
        self.derivations: list = []  # HSDerivation instances made during the current op
        self._stack: list = []
        self._ids = itertools.count(1)
        self._op_id = None

    @contextmanager
    def op(self, op_id, name):
        """Root span of one CLI call; every span inside shares its op id."""
        self._op_id = op_id
        self.derivations = []
        span_id = next(self._ids)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((op_id, span_id, 0, name, start, end))
            self.counts["derivations.mono_cache.entries"] += sum(
                len(D._mono_cache) for D in self.derivations
            )
            self.derivations = []
            self._fold()

    def _span(self, name, after=None):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id = next(ids)
                parent = stack[-1] if stack else 0
                stack.append(span_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((self._op_id, span_id, parent, name, start, end))
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return make

    def install(self):
        m = _modules()
        counts = self.counts

        def mul_counts(args, result):
            a, b = args
            if isinstance(b, m.series.Series):
                counts["series.mul.pairs"] += len(a.terms) * len(b.terms)
                counts["series.mul.terms_out"] += len(result.terms)

        def weighted_counts(args, result):
            counts["formula.weighted_terms.terms"] += len(result)

        def leibniz_counts(args, result):
            counts["derivations.leibniz_check.pairs"] += result.checked_pairs

        def nullspace_counts(args, result):
            rows, ncols = args[0], args[1]
            counts["coefffield.matrix_cells"] += len(rows) * ncols
            counts["coefffield.kernel_dim"] += len(result)

        def remember(fn):
            @functools.wraps(fn)
            def wrapper(instance, *args, **kwargs):
                fn(instance, *args, **kwargs)
                self.derivations.append(instance)

            return wrapper

        span = self._span
        self.patch(m.serialize, "load_problem", span("serialize.load_problem"))
        self.patch(m.serialize, "dumps", span("serialize.dumps"))
        for owner in (m.decompose, m.coefffield):
            self.patch(owner, "degree1_matrix", span("decompose.degree1_matrix"))
            self.patch(owner, "_det", span("decompose.det"))
        self.patch(m.decompose, "residual", span("decompose.residual"))
        self.patch(m.decompose, "solve_derivation_coords", span("decompose.solve"))
        for owner in (m.decompose, m.cli):
            self.patch(owner, "verify_decomposition", span("decompose.verify"))
        for owner in (m.decompose, m.formula):
            self.patch(owner, "weighted_terms", span("formula.weighted_terms", weighted_counts))
            self.patch(owner, "compose_multi", span("derivations.compose_multi"))
        self.patch(m.decompose, "apply_table", span("formula.apply_table"))
        self.patch(m.derivations.HSDerivation, "apply_component",
                   span("derivations.apply_component"))
        self.patch(m.derivations.HSDerivation, "__init__", remember)
        self.patch(m.cli, "leibniz_check", span("derivations.leibniz_check", leibniz_counts))
        self.patch(m.series.Series, "__mul__", span("series.mul", mul_counts))
        self.patch(m.series.Series, "__add__", span("series.add"))
        self.patch(m.series.TSeries, "__mul__", span("series.tmul"))
        self.patch(m.series.Series, "inverse", span("series.inverse"))
        self.patch(m.coefffield.QuotientBasis, "__init__", span("coefffield.quotient_basis"))
        self.patch(m.coefffield, "component_matrix", span("coefffield.component_matrix"))
        self.patch(m.coefffield, "nullspace", span("coefffield.nullspace", nullspace_counts))

    def _fold(self):
        child = defaultdict(float)
        for _, span_id, parent, _, start, end in self.spans:
            if parent:
                child[parent] += end - start
        for _, span_id, parent, name, start, end in self.spans:
            if parent:
                self.self_s[name] += end - start - child[span_id]
                self.calls[name] += 1
            else:
                self.roots[name] += end - start
        self.spans.clear()


class Counting(_Patches):
    """Call counts for the field operations and ``Series.__init__``."""

    def __init__(self):
        super().__init__()
        self.counts: Counter = Counter()

    def _count(self, key):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def install(self):
        m = _modules()
        for attr in ("add", "sub", "neg", "mul", "inv"):
            self.patch(m.fields.FieldSpec, attr, self._count("fields.ops"))
        self.patch(m.series.Series, "__init__", self._count("series.init.calls"))
