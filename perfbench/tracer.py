"""In-memory span tracer that wraps the package's public functions from outside.

A wrapped call records one span: name, start, end (perf_counter_ns), the index
of the enclosing span and optional counters (rows, nnz). Nothing inside the
package changes: the tracer rebinds module attributes that the program looks
up at call time and restores them on uninstall.
"""

import sys
import time
from collections import defaultdict

# Modules whose attributes are rebound. Private modules (_fallback, _kernels)
# are left alone so that a backend's internal per-row calls are not counted
# as public `backend.posterior` calls.
PUBLIC_MODULES = ("", ".backend", ".core", ".losses", ".trainer", ".evalkit", ".synthdata", ".cli")

# (module, attribute) pairs the tracer wraps; the span is named "module.attribute".
TRACED = (
    ("backend", "posterior_batch"),
    ("backend", "posterior"),
    ("core", "alpha_softargmax"),
    ("losses", "fy_loss"),
    ("losses", "batch_loss_and_cosine_grad"),
    ("losses", "batch_posteriors"),
    ("trainer", "loss_and_grads"),
    ("trainer", "sgd_step"),
    ("trainer", "embed"),
    ("trainer", "train"),
    ("trainer", "save_checkpoint"),
    ("trainer", "load_checkpoint"),
    ("trainer", "write_metrics_csv"),
    ("evalkit", "make_trials"),
    ("evalkit", "score_trials"),
    ("evalkit", "frr_at_far"),
    ("evalkit", "det_points"),
    ("evalkit", "write_det_csv"),
    ("evalkit", "sparsity_report"),
    ("evalkit", "avg_relative_improvement"),
    ("synthdata", "generate"),
    ("synthdata", "generate_heldout"),
    ("synthdata", "save"),
    ("synthdata", "load"),
    ("synthdata", "load_csv"),
    ("cli", "main"),
)


def _solver_rows(result):
    """Rows solved and nonzero entries of P, for the batch solver."""
    P = result[0]
    return {"rows": P.shape[0], "entries": P.size, "nnz": int((P != 0.0).sum())}


def _det_rows(result):
    return {"rows": len(result)}


# counters recorded from a span's result, by span name
COUNTERS = {"backend.posterior_batch": _solver_rows, "evalkit.det_points": _det_rows}


class Tracer:
    """Records spans while installed. Single-threaded: the parent of a span
    is whatever span is open when it starts."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, counters]
        self._stack = []
        self._saved = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        pkg = "alphamargin"
        modules = [sys.modules[pkg + suffix] for suffix in PUBLIC_MODULES]
        wrappers = {}
        for mod_name, attr in TRACED:
            fn = getattr(sys.modules[f"{pkg}.{mod_name}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{attr}", fn))
        # rebind every public binding of a traced function, including the
        # `from .losses import f` copies other modules hold
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def mark(self):
        """Index of the next span, for slicing one unit of work out of the log."""
        return len(self.spans)


def layer_stats(spans, lo):
    """Per-name totals over spans[lo:]: calls, self seconds and summed
    counters. Self time is a span's duration minus its children's.
    `report_rows` counts solver rows under an evalkit.sparsity_report span."""
    hi = len(spans)
    child_ns = defaultdict(int)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            child_ns[parent] += spans[i][2] - spans[i][1]
    stats = defaultdict(lambda: defaultdict(float))
    for i in range(lo, hi):
        name, start, end, _, counters = spans[i]
        s = stats[name]
        s["calls"] += 1
        s["self_s"] += (end - start - child_ns[i]) * 1e-9
        if counters:
            for key, value in counters.items():
                s[key] += value
            if name == "backend.posterior_batch" and _has_ancestor(
                spans, i, "evalkit.sparsity_report", lo
            ):
                s["report_rows"] += counters["rows"]
    return stats


def _has_ancestor(spans, i, name, lo):
    parent = spans[i][3]
    while parent >= lo:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
