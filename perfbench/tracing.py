"""Per-layer measurement for the traced benchmark run.

The program is left as it is.  While a `Tracer` is installed, public
functions of the ``pdesctl`` modules are replaced, in every module that
holds a reference to them, by wrappers that record a span (name, start,
end, parent span, job) or, for functions called too often for a span
each, a call count and the total time.  ``Pdes.__init__`` is wrapped to
count automata and their states.  Span and hot-call times are inclusive:
a span's time covers the spans inside it.

`self_times` turns a cProfile pass into self time per module.  Self time
of code outside the package (stdlib, builtins, generated dataclass
methods) is charged to the package modules that called it, in proportion
to the time it spent under each caller.
"""

from __future__ import annotations

import functools
import os
import pstats
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

# span name -> the functions it times, as (pdesctl module, attribute)
STAGES: Dict[str, List[Tuple[str, str]]] = {
    "automata.parse": [("automata", "loads_automaton")],
    "automata.dump": [("automata", "dumps_automaton")],
    "automata.observer": [("automata", "observer"), ("automata", "observer_automaton")],
    "automata.product": [("automata", "product")],
    "automata.minimize": [("automata", "minimize_logic")],
    "automata.equiv": [("automata", "language_equivalent"), ("automata", "is_sublanguage"),
                       ("automata", "is_subautomaton")],
    "verification.tc": [("verification", "build_tc")],
    "verification.to": [("verification", "build_to")],
    "supervisor.classes": [("supervisor", "observation_classes")],
    "supervisor.scaling": [("supervisor", "scaling_from_spec")],
    "supervisor.roulette": [("supervisor", "supervisor_from_scaling")],
    "supervisor.map_io": [("supervisor", "dumps_scaling_map"), ("supervisor", "loads_scaling_map"),
                          ("supervisor", "dumps_supervisor_map"), ("supervisor", "loads_supervisor_map")],
    "patterns.dist": [("patterns", "distribution_from_marginals"), ("patterns", "marginals_of")],
    "simulate.trials": [("simulate", "run_trials")],
    "infimal.saturate": [("infimal", "infimal_co_support")],
    "infimal.refine": [("infimal", "refine_to_normal")],
    "infimal.reweight": [("infimal", "reweight_infimal")],
}

# span name -> (count name, size of the span's result)
RESULT_SIZES = {
    "verification.tc": ("verification.tc_states", lambda r: r.state_count),
    "verification.to": ("verification.to_states", lambda r: r.state_count),
    "supervisor.classes": ("supervisor.classes", lambda r: r.count),
    "infimal.saturate": ("infimal.support_states", lambda r: len(r.states)),
    "infimal.refine": ("infimal.normal_states", lambda r: len(r.g_n.states) + len(r.h_n.states)),
    "simulate.trials": ("simulate.steps", lambda r: sum(row.count for w, row in r.rows.items() if w)),
}

# called up to millions of times a pass: counted and timed in aggregate
HOT = {
    "supervisor.target": ("supervisor", "controlled_language_value"),
    "supervisor.xi": ("supervisor", "controlled_xi"),
}

JOB = "cli.job"

# per-layer metric -> unit, in report order
PER_LAYER = {
    "values.self_s": "s", "values.calls": "count",
    "automata.self_s": "s", "automata.pdes_built": "count", "automata.states_built": "count",
    "automata.parse_s": "s", "automata.dump_s": "s",
    "automata.observer_s": "s", "automata.product_s": "s", "automata.minimize_s": "s",
    "automata.equiv_s": "s",
    "verification.tc_s": "s", "verification.tc_states": "count",
    "verification.to_s": "s", "verification.to_states": "count",
    "supervisor.classes_s": "s", "supervisor.classes": "count", "supervisor.scaling_s": "s",
    "supervisor.roulette_s": "s", "supervisor.map_io_s": "s",
    "patterns.self_s": "s", "patterns.dist_s": "s",
    "supervisor.target_s": "s", "supervisor.target_calls": "count", "supervisor.xi_calls": "count",
    "simulate.sample_s": "s", "simulate.steps": "count",
    "infimal.saturate_s": "s", "infimal.support_states": "count", "infimal.refine_s": "s",
    "infimal.normal_states": "count", "infimal.reweight_s": "s",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}


class Tracer:
    """Spans and counts of one traced pass over a batch."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, job]
        self.counts: Counter = Counter()
        self.hot_s: Counter = Counter()
        self._open: List[int] = []
        self._active: Counter = Counter()
        self._job = None

    def _begin(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._open.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def job(self, index: int):
        self._job = index
        self._begin(JOB)
        try:
            yield
        finally:
            self._end()
            self._job = None

    def _stage(self, name, fn):
        size = RESULT_SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._active[name]:  # covered by the enclosing span of this stage
                return fn(*args, **kwargs)
            self._active[name] += 1
            self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
                self._active[name] -= 1
            if size:
                self.counts[size[0]] += size[1](result)
            return result

        return wrapper

    def _hot(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            if self._active[name]:
                return fn(*args, **kwargs)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.hot_s[name] += time.perf_counter() - start
                self._active[name] -= 1

        return wrapper

    @contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "pdesctl" or n.startswith("pdesctl.")]
        patches = []

        def replace(module, attr, make):
            orig = getattr(sys.modules["pdesctl." + module], attr)
            new = make(orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, new)

        pdes = sys.modules["pdesctl.automata"].Pdes
        init = pdes.__init__

        def counting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.counts["automata.pdes_built"] += 1
            self.counts["automata.states_built"] += len(obj.states)

        try:
            for name, targets in STAGES.items():
                for module, attr in targets:
                    replace(module, attr, lambda fn, name=name: self._stage(name, fn))
            for name, (module, attr) in HOT.items():
                replace(module, attr, lambda fn, name=name: self._hot(name, fn))
            pdes.__init__ = counting_init
            yield self
        finally:
            pdes.__init__ = init
            for mod, key, orig in reversed(patches):
                setattr(mod, key, orig)

    def layer_metrics(self) -> Dict[str, float]:
        """Span-derived per-layer metrics of this pass."""
        total: Counter = Counter()
        covered: Counter = Counter()
        for name, start, end, parent, _job in self.spans:
            total[name] += end - start
            if parent is not None and self.spans[parent][0] == JOB:
                covered[parent] += end - start
        cli_self = sum(
            end - start - covered[i]
            for i, (name, start, end, _p, _j) in enumerate(self.spans)
            if name == JOB
        )
        out = {f"{name}_s": total[name] for name in STAGES}
        out.update(self.counts)
        out["supervisor.target_s"] = self.hot_s["supervisor.target"]
        out["simulate.sample_s"] = total["simulate.trials"] - self.hot_s["supervisor.target"]
        out["cli.self_s"] = cli_self
        return out


def self_times(profile, package_dir: str) -> Tuple[Dict[str, float], Counter]:
    """Self time and call count per package module from a cProfile pass."""
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)

    def module_of(func):
        path = func[0]
        if os.path.dirname(os.path.abspath(path)) == package_dir and path.endswith(".py"):
            return os.path.basename(path)[:-3]
        return None

    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func, seen) -> Dict[str, float]:
        module = module_of(func)
        if module:
            return {module: 1.0}
        if func in memo:
            return memo[func]
        callers = {c: edge for c, edge in stats[func][4].items() if c not in seen and c in stats}
        weights = {c: edge[2] for c, edge in callers.items()}  # self time under that caller
        if sum(weights.values()) <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}  # fall back to call counts
        total = sum(weights.values())
        out: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            if weight:
                for module, share in shares(caller, seen | {func}).items():
                    out[module] += share * weight / total
        memo[func] = out
        return out

    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for module, share in shares(func, frozenset()).items():
            self_s[module] += tt * share
        module = module_of(func)
        if module:
            calls[module] += nc
    return self_s, calls
