"""In-memory span tracer that wraps library functions from the outside.

qsslab modules call each other through module attributes
(``linalg.parameterized_unitary``, ``search.outcome_score``, ...) and
look plain names up in their module globals at call time, so replacing an
attribute on the module (or class) intercepts every call, including calls
from inside the same module. ``Tracer.restore`` puts the original objects
back.

A span is (name, start, end, parent). A span's self time is its duration
minus the part of its interval that its direct children cover.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import Counter
from contextlib import contextmanager

# (module name, attribute path, span name). "span" targets record a span;
# "count" targets only count calls, so their time stays in the caller's
# self time. A target missing from the library is skipped and reported.
SPAN_TARGETS = [
    ("linalg", "parameterized_unitary", "linalg.parameterized_unitary"),
    ("linalg", "takagi", "linalg.takagi"),
    ("linalg", "partial_transpose", "linalg.partial_transpose"),
    ("states", "QuantumState.__post_init__", "states.QuantumState"),
    ("states", "spectral_ensemble", "states.spectral_ensemble"),
    ("states", "reweight", "states.reweight"),
    ("entanglement", "concurrence_matrix", "entanglement.concurrence_matrix"),
    ("entanglement", "concurrence", "entanglement.concurrence"),
    ("entanglement", "lambda_spectrum", "entanglement.lambda_spectrum"),
    ("entanglement", "magic_decomposition", "entanglement.magic_decomposition"),
    ("entanglement", "min_pt_eigenvalue", "entanglement.min_pt_eigenvalue"),
    ("entanglement", "ppt_separable", "entanglement.ppt_separable"),
    ("entanglement", "schmidt_coefficients", "entanglement.schmidt_coefficients"),
    ("protocol", "permutation_matrix", "protocol.permutation_matrix"),
    ("protocol", "run_round", "protocol.run_round"),
    ("qss", "classify", "qss.classify"),
    ("qss", "full_rank_certificate", "qss.full_rank_certificate"),
    ("qss", "reweight_certificate_2q", "qss.reweight_certificate_2q"),
    ("qss", "heuristic_search", "qss.heuristic_search"),
    ("qss", "verify_certificate", "qss.verify_certificate"),
    ("search", "impossibility_probe", "search.impossibility_probe"),
    ("search", "optimize_protocol", "search.optimize_protocol"),
    ("search", "outcome_score", "search.outcome_score"),
    ("search", "outcome_success", "search.outcome_success"),
    ("cli", "load_state", "cli.load_state"),
    ("cli", "run_command", "cli.run_command"),
    ("cli", "write_report", "cli.write_report"),
]

# The search objective's entry point: one call per evaluation.
COUNT_TARGETS = [
    ("search", "_RoundScorer.score", "search.evaluations"),
]

ROUTES = [
    "full-rank",
    "already-separable",
    "z1-reweighting",
    "heuristic-search",
    "not-qss-candidate",
    "unknown",
    "other",
]


def library_modules():
    """The qsslab modules the targets live in, by name."""
    import qsslab

    return {name: getattr(qsslab, name) for name in
            ("cli", "entanglement", "linalg", "protocol", "qss", "search",
             "states")}


def verdict_route(verdict):
    """Route label of a QssVerdict, one of ROUTES."""
    route = verdict.evidence.get("route")
    if verdict.status == "QSS" and route in ROUTES:
        return route
    if verdict.status == "NOT_QSS_CANDIDATE":
        return "not-qss-candidate"
    if verdict.status == "UNKNOWN" and route is None:
        return "unknown"
    return "other"


class Tracer:
    """Spans in parallel lists, a parent stack, and named counters.

    Wrappers record only while ``active`` is true, so calls the benchmark
    makes for its own checks stay out of the trace.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = Counter()
        self.active = False
        self.missing = []
        self._stack = [-1]
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def current(self):
        """Index of the innermost open span, -1 if none."""
        return self._stack[-1]

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def add_span(self, name, start, end, parent):
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def merge(self, data, parent):
        """Append spans and counters exported by another process's tracer
        (``export``) under span ``parent``. perf_counter is the system-wide
        monotonic clock on Linux, so times from both processes compare."""
        offset = len(self.names)
        for name, start, end, par in zip(
            data["names"], data["starts"], data["ends"], data["parents"]
        ):
            self.add_span(name, start, end, parent if par < 0 else par + offset)
        self.counters.update(data["counters"])

    def export(self):
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counters": dict(self.counters),
        }

    # -- wrapping ----------------------------------------------------------

    def _wrap_span(self, fn, name):
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return wrapper

    def _wrap_count(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules):
        """Wrap every target found in ``modules`` (name -> module object)."""
        self.missing = []
        for targets, make in ((SPAN_TARGETS, self._wrap_span),
                              (COUNT_TARGETS, self._wrap_count)):
            for mod_name, path, name in targets:
                owner = modules.get(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                if owner is None or attr not in vars(owner):
                    self.missing.append(name)
                    continue
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original, name))

    def restore(self):
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as gzipped CSV: index,name,start_s,end_s,parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i},{n},{s!r},{e!r},{p}\n")


def _count_route(counters, verdict):
    counters["qss.classify.verdicts"] += 1
    counters[f"qss.route.{verdict_route(verdict)}"] += 1


def _count_heuristic_evals(counters, verdict):
    counters["qss.heuristic_search.evaluations"] += int(
        verdict.evidence.get("evaluations", 0)
    )


_RESULT_HOOKS = {
    "qss.classify": _count_route,
    "qss.heuristic_search": _count_heuristic_evals,
}


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the union of its direct
    children's intervals, clipped to the span."""
    children = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=starts.__getitem__):
            lo, hi = max(starts[c], s), min(ends[c], e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


def op_errors(starts, ends, parents, selfs, min_layer_share=None):
    """Check each root span (one traced operation) against its subtree.

    The self times of a root and all its descendants must add up to the
    root's duration; overlapping or escaping child spans break this. With
    ``min_layer_share``, the descendants' self times (the wrapped library
    layers) must also cover at least that share of the root's duration.
    Returns one list of error messages per root, in root order.
    """
    root_of = []
    for i, p in enumerate(parents):
        root_of.append(i if p < 0 else root_of[p])
    total = Counter()
    layers = Counter()
    for i, (r, own) in enumerate(zip(root_of, selfs)):
        total[r] += own
        if i != r:
            layers[r] += own
    out = []
    for r in (i for i, p in enumerate(parents) if p < 0):
        dur = ends[r] - starts[r]
        errors = []
        if abs(total[r] - dur) > 1e-6 * (1.0 + dur):
            errors.append(f"span self times add up to {total[r]!r} s, "
                          f"the operation took {dur!r} s")
        if min_layer_share is not None and layers[r] < min_layer_share * dur:
            errors.append(f"wrapped layers cover {layers[r] / dur:.4%} of "
                          f"the operation, less than {min_layer_share:.0%}")
        out.append(errors)
    return out
