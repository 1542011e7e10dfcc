"""Per-layer spans for the traced run, recorded from outside the program.

The recorder wraps public functions at the names the program looks them up
by (a `from .covers import conjugacy_classes` in chartab is wrapped as
`schur_ed.chartab.conjugacy_classes`).  Hot functions are aggregated as
(calls, total, self) rather than stored one span per call; a span's self
time is its duration minus the time of the wrapped spans it called.  The
wrappers exist only while a traced pass runs: `uninstall` puts back the
original objects and `assert_clean` proves it before every timed pass.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (module, attribute path, span name)
TARGETS: List[Tuple[str, str, str]] = [
    ("schur_ed.covers", "Cover.elementary_cocycle", "covers.cocycle"),
    ("schur_ed.covers", "Cover.mul", "covers.mul"),
    ("schur_ed.covers", "FiniteGroupTable.generate", "covers.generate"),
    ("schur_ed.cli", "verify_presentation", "covers.verify_presentation"),
    ("schur_ed.chartab", "conjugacy_classes", "covers.conjugacy_classes"),
    ("schur_ed.chartab", "center", "covers.center"),
    ("schur_ed.covers", "canonical_word", "perms.canonical_word"),
    ("schur_ed.cli", "dixon_character_table", "chartab.dixon"),
    ("schur_ed.chartab", "dixon_character_table", "chartab.dixon"),
    ("schur_ed.cli", "min_faithful_irrep_dim", "chartab.min_faithful"),
    ("schur_ed.cli", "count_min_faithful", "chartab.min_faithful"),
    ("schur_ed.edcalc", "min_faithful_irrep_dim", "chartab.min_faithful"),
    ("schur_ed.edcalc", "ed2_computed", "edcalc.ed2_computed"),
    ("schur_ed.edcalc", "table1", "edcalc.table1"),
    ("schur_ed.clifford", "spin_representation", "clifford.spin_rep"),
    ("schur_ed.clifford", "verify_spin_representation",
     "clifford.spin_verify"),
    ("schur_ed.radicals", "smat_mul", "radicals.smat_mul"),
    ("schur_ed.qforms", "random_etale_algebra", "qforms.random_etale"),
    ("schur_ed.qforms", "trace_form", "qforms.trace_form"),
    ("schur_ed.qforms", "contains_ones", "qforms.contains_ones"),
    ("schur_ed.qforms", "discriminant", "qforms.disc"),
    ("schur_ed.qforms", "etale_discriminant", "qforms.disc"),
    ("schur_ed.polyq", "certify_irreducible", "polyq.certify_irreducible"),
    ("schur_ed.qforms", "factorize", "numth.factorize"),
    ("schur_ed.numth", "factorize", "numth.factorize"),
    ("schur_ed.cli", "main", "cli.main"),
]

MARK = "bench_span"


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        obj = getattr(obj, name)
    return obj, attr


def _function(raw):
    return raw.__func__ if isinstance(raw, classmethod) else raw


def assert_clean() -> None:
    """Raise if any wrapper is still installed."""
    for module, path, _ in TARGETS:
        owner, attr = _owner(module, path)
        if hasattr(_function(owner.__dict__[attr]), MARK):
            raise RuntimeError(f"tracing wrapper left on {module}.{path}")


class Recorder:
    def __init__(self):
        # span name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack = [0.0]  # child time of each open span
        self._saved = []
        # per live cover context: (perm, i) pairs already asked for
        self._seen = weakref.WeakKeyDictionary()

    # -- hooks: enter(args) -> token, leave(args, result, dt, token) ----------

    def _cocycle_enter(self, args):
        cover, perm, i = args
        seen = self._seen.get(cover)
        if seen is None:
            seen = self._seen[cover] = set()
        first = (perm, i) not in seen
        if first:
            seen.add((perm, i))
        return first

    def _cocycle_leave(self, args, result, dt, first):
        if first:
            self.counts["cocycle_misses"] += 1
            self.counts["cocycle_miss_s"] += dt

    def _closure_leave(self, args, result, dt, token):
        self.counts["closure_elems"] += result.order

    def _presentation_leave(self, args, report, dt, token):
        if report.order_method == "closure":
            self.counts["closure_elems"] += report.order

    def _classes_leave(self, args, classes, dt, token):
        self.counts["class_count"] += len(classes)

    def _dixon_leave(self, args, ct, dt, token):
        self.counts["dixon_class_count"] += ct.n_classes
        self.counts["prime"] = max(self.counts["prime"], ct.prime)

    def _factorize_enter(self, args):
        bits = abs(args[0]).bit_length()
        self.counts["factorize_max_bits"] = max(
            self.counts["factorize_max_bits"], bits)

    def _hooks(self, name: str):
        return {
            "covers.cocycle": (self._cocycle_enter, self._cocycle_leave),
            "covers.generate": (None, self._closure_leave),
            "covers.verify_presentation": (None, self._presentation_leave),
            "covers.conjugacy_classes": (None, self._classes_leave),
            "chartab.dixon": (None, self._dixon_leave),
            "numth.factorize": (self._factorize_enter, None),
        }.get(name, (None, None))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        enter, leave = self._hooks(name)

        def wrapper(*args, **kwargs):
            token = enter(args) if enter else None
            # depth-based, so a deadline signal between two statements
            # cannot leave the stack unbalanced
            depth = len(stack)
            t0 = clock()
            try:
                stack.append(0.0)
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack[depth] if len(stack) > depth else 0.0
                del stack[depth:]
                stack[-1] += dt
                span[0] += 1
                span[1] += dt
                span[2] += dt - child
            if leave:
                leave(args, result, dt, token)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        assert_clean()
        for module, path, name in TARGETS:
            owner, attr = _owner(module, path)
            raw = owner.__dict__[attr]
            wrapped = self._wrap(name, _function(raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- per-layer metrics ------------------------------------------------------

    def self_sum(self) -> float:
        return sum(s[2] for s in self.spans.values())

    def metrics(self) -> Dict[str, float]:
        """Values of every per-layer metric declared in BENCHMARK.json
        except the trace.* ones, which need the untraced pass."""
        s, c = self.spans, self.counts

        def calls(n):
            return s[n][0]

        def total(n):
            return s[n][1]

        def self_(n):
            return s[n][2]

        cocycle_calls = calls("covers.cocycle")
        closure_s = total("covers.generate") + total("covers.verify_presentation")
        return {
            "covers.cocycle_calls": cocycle_calls,
            "covers.cocycle_misses": c["cocycle_misses"],
            "covers.cocycle_hit_ratio": _ratio(
                cocycle_calls - c["cocycle_misses"], cocycle_calls),
            "covers.cocycle_miss_s": c["cocycle_miss_s"],
            "covers.mul_calls": calls("covers.mul"),
            "covers.mul_self_s": self_("covers.mul"),
            "covers.closure_elems": c["closure_elems"],
            "covers.closure_s": closure_s,
            "covers.closure_elems_per_s": _ratio(c["closure_elems"], closure_s),
            "covers.classes_s": total("covers.conjugacy_classes"),
            "covers.class_count": c["class_count"],
            "covers.center_s": total("covers.center"),
            "perms.canonical_word_calls": calls("perms.canonical_word"),
            "perms.canonical_word_s": total("perms.canonical_word"),
            "chartab.dixon_self_s": self_("chartab.dixon"),
            "chartab.prime": c["prime"],
            "chartab.class_count": c["dixon_class_count"],
            "chartab.min_faithful_s": self_("chartab.min_faithful"),
            "edcalc.ed2_computed_calls": calls("edcalc.ed2_computed"),
            "edcalc.ed2_computed_s": total("edcalc.ed2_computed"),
            "edcalc.table1_s": total("edcalc.table1"),
            "clifford.spin_rep_s": total("clifford.spin_rep"),
            "clifford.spin_verify_self_s": self_("clifford.spin_verify"),
            "radicals.smat_mul_calls": calls("radicals.smat_mul"),
            "radicals.smat_mul_s": total("radicals.smat_mul"),
            "qforms.random_etale_s": total("qforms.random_etale"),
            "qforms.trace_form_s": total("qforms.trace_form"),
            "qforms.contains_ones_self_s": self_("qforms.contains_ones"),
            "qforms.disc_s": total("qforms.disc"),
            "polyq.certify_irreducible_calls": calls("polyq.certify_irreducible"),
            "polyq.certify_irreducible_s": total("polyq.certify_irreducible"),
            "numth.factorize_calls": calls("numth.factorize"),
            "numth.factorize_s": total("numth.factorize"),
            "numth.factorize_max_bits": c["factorize_max_bits"],
            "cli.self_s": self_("cli.main"),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
