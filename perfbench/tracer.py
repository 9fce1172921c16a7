"""Outside-in tracing of spmlab's public functions.

``Tracer.install`` replaces each traced function by a timing wrapper in its
defining module and in every spmlab module that imported it by name, and
wraps the traced methods on the graph, coefficient and config classes. Each
call records a span ``[name, start, end, parent, amount, outer]`` in memory:
the parent is the span open when the call began, the amount is what the call
handled (array entries, rows, bytes) and ``outer`` says that no enclosing span
has the same name. ``layer_metrics`` turns the spans
into the per-layer metrics and ``write_spans`` writes them out when the run
ends. Nothing inside spmlab changes: a later refactor that removes or
reshapes a traced function only drops the metrics built on it, and the tracer
says so in ``notes``.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

PACKAGE = "spmlab"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _entries(args, kwargs, result):
    # resolvent(self, lam, r): array elements handled
    return int(np.size(_arg(args, kwargs, 2, "r")))


def _dual_rows(args, kwargs, result):
    # norm_hminus1(f, L) and inner_hminus1(f, g, L) handle one field;
    # hminus1_norm_sq_rows(L, rows) handles one field per row
    return int(np.size(result))


def _bytes_written(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _picard_counts(args, kwargs, result):
    return (int(result.iterations), len(result.windows))


# (span name, owner, attribute, amount) where owner is "module" or
# "module:Class" relative to spmlab; a class name ending in "*" wraps the
# attribute on the class and on every subclass that defines it.
TARGETS = [
    ("monotone.resolvent", "monotone:MonotoneGraph*", "resolvent", _entries),
    ("monotone.resolvent", "monotone:MonotoneGraph*", "resolvent_slope", _entries),
    ("monotone.yosida", "monotone:MonotoneGraph", "yosida", None),
    ("monotone.yosida_slope", "monotone:MonotoneGraph", "yosida_slope", None),
    ("solver.implicit_step", "solver", "implicit_step", None),
    ("solver.additive_path_solve", "solver", "additive_path_solve", None),
    ("solver.picard_solve", "solver", "picard_solve", _picard_counts),
    ("solver.lambda_sweep", "solver", "lambda_sweep", None),
    ("grid.dual_norm", "grid", "norm_hminus1", _dual_rows),
    ("grid.dual_norm", "grid", "inner_hminus1", _dual_rows),
    ("grid.dual_norm", "grid", "hminus1_norm_sq_rows", _dual_rows),
    ("grid.build_laplacian", "grid", "build_laplacian", None),
    ("grid.spectral_apply", "grid", "spectral_apply", None),
    ("noise.sample_path", "noise", "sample_path", None),
    ("noise.stochastic_integral", "noise", "stochastic_integral", None),
    ("noise.mode_fields", "noise:DiffusionCoefficient*", "mode_fields", None),
    ("noise.mode_fields", "noise:DiffusionCoefficient*", "mode_fields_batch", None),
    ("noise.lipschitz_constant", "noise", "lipschitz_constant", None),
    ("verify.doob", "verify", "check_doob", None),
    ("verify.isometry", "verify", "check_isometry", None),
    ("verify.stability", "verify", "check_resta", None),
    ("verify.apriori", "verify", "check_apriori", None),
    ("verify.contraction", "verify", "check_contraction", None),
    ("verify.lipschitz_map", "verify", "check_lipschitz_map", None),
    ("config.load", "config:ExperimentConfig", "__init__", None),
    ("reporting.write_csv", "reporting", "write_csv", _bytes_written),
]

# metric name -> (unit, the span names it is built from)
LAYER_METRICS = {
    "monotone.resolvent.calls": ("count", ["monotone.resolvent"]),
    "monotone.resolvent.entries": ("count", ["monotone.resolvent"]),
    "monotone.resolvent.s": ("s", ["monotone.resolvent"]),
    "monotone.yosida.calls": ("count", ["monotone.yosida"]),
    "monotone.yosida_slope.calls": ("count", ["monotone.yosida_slope"]),
    "solver.implicit_step.calls": ("count", ["solver.implicit_step"]),
    "solver.implicit_step.s": ("s", ["solver.implicit_step"]),
    "solver.implicit_step.self_s": ("s", ["solver.implicit_step"]),
    "solver.newton_iters": ("count", ["solver.implicit_step", "monotone.yosida_slope"]),
    "solver.residual_evals": ("count", ["solver.implicit_step", "monotone.yosida"]),
    "solver.additive_path_solve.calls": ("count", ["solver.additive_path_solve"]),
    "solver.additive_path_solve.s": ("s", ["solver.additive_path_solve"]),
    "solver.picard_solve.calls": ("count", ["solver.picard_solve"]),
    "solver.picard_solve.s": ("s", ["solver.picard_solve"]),
    "solver.picard_sweeps": ("count", ["solver.picard_solve"]),
    "solver.picard_windows": ("count", ["solver.picard_solve"]),
    "solver.lambda_sweep.s": ("s", ["solver.lambda_sweep"]),
    "grid.dual_norm.calls": ("count", ["grid.dual_norm"]),
    "grid.dual_norm.rows": ("count", ["grid.dual_norm"]),
    "grid.dual_norm.s": ("s", ["grid.dual_norm"]),
    "grid.build_laplacian.s": ("s", ["grid.build_laplacian"]),
    "grid.spectral_apply.calls": ("count", ["grid.spectral_apply"]),
    "grid.spectral_apply.s": ("s", ["grid.spectral_apply"]),
    "noise.sample_path.calls": ("count", ["noise.sample_path"]),
    "noise.sample_path.s": ("s", ["noise.sample_path"]),
    "noise.stochastic_integral.calls": ("count", ["noise.stochastic_integral"]),
    "noise.stochastic_integral.s": ("s", ["noise.stochastic_integral"]),
    "noise.mode_fields.calls": ("count", ["noise.mode_fields"]),
    "noise.mode_fields.s": ("s", ["noise.mode_fields"]),
    "noise.lipschitz_constant.s": ("s", ["noise.lipschitz_constant"]),
    "verify.doob.s": ("s", ["verify.doob"]),
    "verify.isometry.s": ("s", ["verify.isometry"]),
    "verify.stability.s": ("s", ["verify.stability"]),
    "verify.apriori.s": ("s", ["verify.apriori"]),
    "verify.contraction.s": ("s", ["verify.contraction"]),
    "verify.lipschitz_map.s": ("s", ["verify.lipschitz_map"]),
    "config.load.s": ("s", ["config.load"]),
    "reporting.write_csv.calls": ("count", ["reporting.write_csv"]),
    "reporting.write_csv.s": ("s", ["reporting.write_csv"]),
    "reporting.bytes": ("bytes", ["reporting.write_csv"]),
}


class Tracer:
    """Span recorder for one traced command; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.notes = []
        self._stack = []
        self._open = {}          # span name -> number of open spans with it
        self._patches = []       # (owner, attribute, original)
        self._wrapped = set()    # span names with at least one wrapped target
        self._broken = set()     # span names whose amount could not be read

    # -- installing --------------------------------------------------------

    def _wrapper(self, name, fn, amount):
        spans, stack, opened, clock = self.spans, self._stack, self._open, time.perf_counter
        broken = self._broken

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0, not opened.get(name)]
            stack.append(len(spans))
            spans.append(rec)
            opened[name] = opened.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                opened[name] -= 1
            if amount is not None:
                try:
                    rec[4] = amount(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    broken.add(name)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = {key[len(PACKAGE) + 1:]: mod for key, mod in sys.modules.items()
                   if key.startswith(PACKAGE + ".") and mod is not None}
        modules[""] = sys.modules[PACKAGE]
        for name, owner, attr, amount in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = modules.get(mod_name)
            if mod is None:
                self.notes.append(f"trace target {PACKAGE}.{mod_name} missing")
                continue
            if cls_name:
                self._install_method(name, mod, cls_name, attr, amount)
            else:
                self._install_function(name, mod, attr, amount, modules.values())

    def _install_function(self, name, mod, attr, amount, modules):
        fn = getattr(mod, attr, None)
        if not callable(fn):
            self.notes.append(f"trace target {mod.__name__}.{attr} missing")
            return
        wrapped = self._wrapper(name, fn, amount)
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is fn:
                    self._patch(other, key, wrapped)
        self._wrapped.add(name)

    def _install_method(self, name, mod, cls_name, attr, amount):
        every_subclass = cls_name.endswith("*")
        base = getattr(mod, cls_name.rstrip("*"), None)
        if not isinstance(base, type):
            self.notes.append(f"trace target {mod.__name__}.{cls_name.rstrip('*')} missing")
            return
        classes = _subclasses(base) if every_subclass else [base]
        found = False
        for cls in classes:
            fn = cls.__dict__.get(attr)
            if callable(fn):
                self._patch(cls, attr, self._wrapper(name, fn, amount))
                found = True
        if found:
            self._wrapped.add(name)
        else:
            self.notes.append(f"trace target {base.__name__}.{attr} missing")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the recorded spans, by metric name.

        A span counts towards its name's calls, time and amount only when no
        enclosing span has the same name, so a nested call (``norm_hminus1``
        calling ``inner_hminus1``) is one dual norm, not two.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        calls, secs, amounts = {}, {}, {}
        for name, start, end, parent, amount, outer in spans:
            if parent >= 0:
                child_time[parent] += end - start
            if outer:
                calls[name] = calls.get(name, 0) + 1
                secs[name] = secs.get(name, 0.0) + (end - start)
                if isinstance(amount, int):
                    amounts[name] = amounts.get(name, 0) + amount

        step_self = 0.0
        in_step = {"monotone.yosida": 0, "monotone.yosida_slope": 0}
        sweeps = windows = 0
        for i, (name, start, end, parent, amount, outer) in enumerate(spans):
            if name == "solver.implicit_step":
                step_self += (end - start) - child_time[i]
            elif name in in_step and self._inside(parent, "solver.implicit_step"):
                in_step[name] += 1
            elif name == "solver.picard_solve" and isinstance(amount, tuple):
                sweeps += amount[0]
                windows += amount[1]

        derived = {
            "solver.implicit_step.self_s": step_self,
            "solver.newton_iters": in_step["monotone.yosida_slope"],
            "solver.residual_evals": in_step["monotone.yosida"],
            "solver.picard_sweeps": sweeps,
            "solver.picard_windows": windows,
        }
        out = {}
        for metric, (unit, sources) in LAYER_METRICS.items():
            missing = [s for s in sources if s not in self._wrapped]
            if missing:
                self.notes.append(f"{metric} left out: no traced target for {missing[0]}")
                continue
            if metric in derived:
                value = derived[metric]
                if metric.startswith("solver.picard_") and sources[0] in self._broken:
                    self.notes.append(f"{metric} left out: {sources[0]} result changed form")
                    continue
            else:
                span_name, _, field = metric.rpartition(".")
                if field == "calls":
                    value = calls.get(span_name, 0)
                elif field == "s":
                    value = secs.get(span_name, 0.0)
                else:
                    span_name = sources[0]
                    if span_name in self._broken:
                        self.notes.append(f"{metric} left out: {span_name} arguments changed form")
                        continue
                    value = amounts.get(span_name, 0)
            out[metric] = (value, unit)
        return out

    def _inside(self, index, name):
        spans = self.spans
        while index >= 0:
            if spans[index][0] == name:
                return True
            index = spans[index][3]
        return False

    def write_spans(self, path):
        """Write the spans as CSV: index, name, start and end (seconds from
        the first span), parent index (-1 at the top)."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent, _amount, _outer) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


def _subclasses(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out

