"""Spans around the public entry points of each pplogic module, recorded
from outside the program by replacing module attributes with wrappers.

Every cross-module call in pplogic goes through a module attribute
(``rcof.fm_feasible(...)``) and every call inside a module through its
globals, so a replaced attribute sees both.  Only coarse entry points are
wrapped: per-node helpers such as ``atoms_of`` or ``to_text`` run millions
of times, and wrapping them would measure the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _fm_rows(args, kwargs):
    atoms = list(kwargs.pop("atoms") if "atoms" in kwargs else args[0])
    return (atoms,) + tuple(args[1:]), kwargs, len(atoms)


def _point_vars(args, kwargs):
    scope = kwargs["scope"] if "scope" in kwargs else args[1]
    return args, kwargs, 1 << len(frozenset(scope))


# module -> entry points; an entry with a function also records a work count
ENTRY_POINTS = {
    "prop": ["entails_c", "dnf"],
    "stochval": ["prob", "marginal", "svp", "check_adams", "check_consistency"],
    "pqentail": ["find_refuting_valuation"],
    "ppl": ["parse", ("build_Q", _point_vars), "ppl_sat"],
    "rcof": ["classify", "decide", "decide_universal_linear", ("fm_feasible", _fm_rows)],
    "validity": ["decide_validity", "valuation_from_assignment"],
    "calculus": ["check_rr", "check_derivation"],
    "cli": ["main"],
}

_DECIDERS = ("rcof.decide", "rcof.decide_universal_linear")

# metric -> (kind, span names); kinds: self (seconds), count (calls), work (sum)
_LAYER_METRICS = {
    "cli.self_s": ("self", ["cli.main"]),
    "ppl.parse_s": ("self", ["ppl.parse"]),
    "ppl.build_q_s": ("self", ["ppl.build_Q"]),
    "ppl.sat_s": ("self", ["ppl.ppl_sat"]),
    "ppl.point_vars": ("work", ["ppl.build_Q"]),
    "validity.self_s": ("self", ["validity.decide_validity"]),
    "validity.witness_s": ("self", ["validity.valuation_from_assignment"]),
    "validity.decisions": ("count", ["validity.decide_validity"]),
    "rcof.classify_s": ("self", ["rcof.classify"]),
    "rcof.decide_s": ("self", list(_DECIDERS)),
    "rcof.fm_s": ("self", ["rcof.fm_feasible"]),
    "rcof.fm_calls": ("count", ["rcof.fm_feasible"]),
    "rcof.fm_rows_in": ("work", ["rcof.fm_feasible"]),
    "calculus.rr_s": ("self", ["calculus.check_rr"]),
    "calculus.derivation_s": ("self", ["calculus.check_derivation"]),
    "calculus.rr_checks": ("count", ["calculus.check_rr"]),
    "pqentail.encode_s": ("self", ["pqentail.find_refuting_valuation"]),
    "pqentail.calls": ("count", ["pqentail.find_refuting_valuation"]),
    "prop.entails_c_s": ("self", ["prop.entails_c"]),
    "prop.dnf_s": ("self", ["prop.dnf"]),
    "stochval.prob_s": ("self", ["stochval.prob"]),
    "stochval.prob_calls": ("count", ["stochval.prob"]),
    "stochval.marginal_s": ("self", ["stochval.marginal"]),
    "stochval.svp_s": ("self", ["stochval.svp"]),
    "stochval.check_adams_s": ("self", ["stochval.check_adams"]),
    "stochval.check_consistency_s": ("self", ["stochval.check_consistency"]),
}

# metrics computed in layer_metrics() beyond the table above
_DERIVED_UNITS = {
    "rcof.decisions": "count",
    "rcof.decision_fm_calls": "count",
    "rcof.clauses_per_decision": "ratio",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
}

ROUND_UNITS = {
    "trace.untraced_round_s": "s",
    "trace.traced_round_s": "s",
    "trace.overhead_s": "s",
}


def metric_units() -> dict:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name, (kind, _) in _LAYER_METRICS.items():
        units[name] = "s" if kind == "self" else "count"
    units.update(_DERIVED_UNITS)
    units.update(ROUND_UNITS)
    return units


class Tracer:
    """Spans (name, start, end, parent, work) kept in memory.

    ``install`` swaps the wrappers in and ``uninstall`` restores the
    original functions, so only the rounds meant to be traced pay for them.
    """

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.rounds: list = []
        self._stack: list = []
        self._patches: list = []  # (module, attribute, original, wrapper)

    def _wrap(self, name: str, fn, prepare):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = 0
            if prepare is not None:
                args, kwargs, work = prepare(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, work)

        return wrapper

    def install(self) -> None:
        if not self._patches:
            for module_name, entries in ENTRY_POINTS.items():
                module = importlib.import_module(f"pplogic.{module_name}")
                for entry in entries:
                    attr, prepare = entry if isinstance(entry, tuple) else (entry, None)
                    fn = getattr(module, attr)
                    wrapper = self._wrap(f"{module_name}.{attr}", fn, prepare)
                    self._patches.append((module, attr, fn, wrapper))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._patches:
            setattr(module, attr, fn)

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-layer totals over every recorded span."""
        names = self.names
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict = {}
        count: dict = {}
        work: dict = {}
        top_level = 0.0
        decisions = decision_fm_calls = 0
        for idx, (name_id, start, end, parent, w) in enumerate(self.spans):
            name = names[name_id]
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[idx]
            count[name] = count.get(name, 0) + 1
            work[name] = work.get(name, 0) + w
            if parent < 0:
                top_level += end - start
            if name in _DECIDERS or name == "rcof.fm_feasible":
                under_decider = False
                p = parent
                while p >= 0:
                    if names[self.spans[p][0]] in _DECIDERS:
                        under_decider = True
                        break
                    p = self.spans[p][3]
                if name == "rcof.fm_feasible":
                    decision_fm_calls += under_decider
                elif not under_decider:
                    decisions += 1
        table = {"self": self_s, "count": count, "work": work}
        out = {}
        for metric, (kind, span_names) in _LAYER_METRICS.items():
            out[metric] = sum(table[kind].get(n, 0) for n in span_names)
        out["rcof.decisions"] = decisions
        out["rcof.decision_fm_calls"] = decision_fm_calls
        out["rcof.clauses_per_decision"] = decision_fm_calls / decisions if decisions else 0.0
        out["trace.unattributed_s"] = traced_wall_s - top_level
        out["trace.spans"] = len(self.spans)
        out["trace.span_cost_s"] = len(self.spans) * self.cost_per_span()
        return out

    def cost_per_span(self, calls: int = 100_000) -> float:
        """Seconds a wrapper adds to one call, timed on a function that does
        nothing; the spans it records are dropped again."""
        def nothing():
            return None

        wrapped = self._wrap("trace.calibration", nothing, None)
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            nothing()
        bare = clock() - start
        mark = len(self.spans)
        start = clock()
        for _ in range(calls):
            wrapped()
        traced = clock() - start
        del self.spans[mark:]
        self.names.pop()
        return max(traced - bare, 0.0) / calls

    def write(self, path) -> None:
        """Write every span as [name id, start, end, parent index, work]."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"names": self.names, "rounds": self.rounds, "spans": self.spans},
                handle,
                separators=(",", ":"),
            )
