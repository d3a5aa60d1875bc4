"""Per-layer timing from outside the program.

`Tracer.install` replaces each traced public function of the package with a
timing wrapper under every name a caller looks it up by: the defining
module's attribute, every `from ... import name` copy in the other package
modules, and the package's re-export.  Methods are wrapped on their class.
No program file is edited, and `uninstall` restores the originals.

Spans are aggregated in memory as they close (calls, inclusive time and the
time covered by child spans, per name); `advance` also keeps each call's
duration for percentiles.  A span's self time is its inclusive time minus
its children's.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

# (span name, defining module, attribute or Class.method)
TARGETS = (
    ("solver.run", "dampedwave.solver", "run"),
    ("solver.advance", "dampedwave.solver", "Stepper.advance"),
    ("solver.detect_blowup", "dampedwave.solver", "detect_blowup"),
    ("functionals.total_energy", "dampedwave.functionals", "total_energy"),
    ("mesh.grad_norm_sq", "dampedwave.mesh", "grad_norm_sq"),
    ("mesh.l2_norm_sq", "dampedwave.mesh", "l2_norm_sq"),
    ("mesh.lp_norm_p", "dampedwave.mesh", "lp_norm_p"),
    ("mesh.inner", "dampedwave.mesh", "inner"),
    ("mesh.write_field", "dampedwave.mesh", "write_field"),
    ("well.well_constants", "dampedwave.well", "well_constants"),
    ("well.prepare_initial_data", "dampedwave.well", "prepare_initial_data"),
    ("series.append", "dampedwave.series", "TimeSeries.append"),
    ("series.to_csv", "dampedwave.series", "TimeSeries.to_csv"),
    ("lyapunov.certify_decay", "dampedwave.lyapunov", "certify_decay"),
    ("lyapunov.equivalence_check", "dampedwave.lyapunov", "equivalence_check"),
    ("cli.main", "dampedwave.cli", "main"),
)
NORMS = ("mesh.grad_norm_sq", "mesh.l2_norm_sq", "mesh.lp_norm_p", "mesh.inner")

# Disjoint pieces of a pass's wall time, for the share table.
SHARES = ("solver.advance_s", "solver.outside_advance_s", "well.well_constants_s",
          "well.prepare_initial_data_s", "lyapunov.certify_decay_s",
          "lyapunov.equivalence_check_s", "mesh.write_field_s",
          "series.to_csv_s", "cli.self_s")


class Tracer:
    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: drop every aggregate."""
        self._stack = [0.0]  # per open span: time covered by its children
        self.spans = {name: [0, 0.0, 0.0] for name, _, _ in TARGETS}
        self.advance_s = array("d")
        self.linear_solves = 0
        self.node_steps = 0
        self.well_keys: set = set()
        self.csv_bytes = 0

    def install(self) -> None:
        hooks = {"solver.advance": self._on_advance,
                 "well.well_constants": self._on_well_constants,
                 "series.to_csv": self._on_to_csv}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dampedwave"
                                         or name.startswith("dampedwave."))]
        for span, modname, attr in TARGETS:
            owner = sys.modules.get(modname)
            if owner is None:
                continue  # not imported, so the workload cannot call it
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                places = [owner]
            else:
                places = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, hooks.get(span))
            for place in places:
                for name, value in list(vars(place).items()):
                    if value is original:
                        setattr(place, name, wrapper)
                        self._installed.append((place, name, original))

    def uninstall(self) -> None:
        for place, name, original in reversed(self._installed):
            setattr(place, name, original)
        self._installed.clear()

    def _wrap(self, span: str, fn, hook):
        perf = time.perf_counter
        agg = self.spans[span]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += child
            if hook is not None:
                hook(fn, args, kwargs, result, dt)
            return result

        return traced

    def _on_advance(self, fn, args, kwargs, result, dt) -> None:
        self.advance_s.append(dt)
        self.linear_solves += result[1].picard_iters  # one solve per Picard iteration
        self.node_steps += args[0].domain.size

    def _on_well_constants(self, fn, args, kwargs, result, dt) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        self.well_keys.add(tuple(bound.arguments.values()))

    def _on_to_csv(self, fn, args, kwargs, result, dt) -> None:
        self.csv_bytes += os.path.getsize(args[1])

    def pass_metrics(self, bytes_written: int) -> dict[str, float]:
        """Per-layer values for the pass traced since the last reset."""
        calls = {name: agg[0] for name, agg in self.spans.items()}
        total = {name: agg[1] for name, agg in self.spans.items()}
        advance_s = total["solver.advance"]
        ok_steps = len(self.advance_s)
        well_calls = calls["well.well_constants"]
        cli = self.spans["cli.main"]
        return {
            "solver.run_s": total["solver.run"],
            "solver.outside_advance_s": total["solver.run"] - advance_s,
            "solver.advance_s": advance_s,
            "solver.advance_calls": calls["solver.advance"],
            "solver.linear_solves": self.linear_solves,
            "solver.picard_iters_per_step":
                self.linear_solves / ok_steps if ok_steps else 0.0,
            "solver.node_steps_per_s":
                self.node_steps / advance_s if advance_s else 0.0,
            "solver.detect_blowup_s": total["solver.detect_blowup"],
            "solver.detect_blowup_calls": calls["solver.detect_blowup"],
            "functionals.total_energy_calls": calls["functionals.total_energy"],
            "functionals.total_energy_s": total["functionals.total_energy"],
            "mesh.norm_calls": sum(calls[name] for name in NORMS),
            "mesh.norm_s": sum(total[name] for name in NORMS),
            "mesh.write_field_s": total["mesh.write_field"],
            "well.well_constants_s": total["well.well_constants"],
            "well.well_constants_calls": well_calls,
            "well.distinct_ratio":
                len(self.well_keys) / well_calls if well_calls else 0.0,
            "well.prepare_initial_data_s": total["well.prepare_initial_data"],
            "series.rows": calls["series.append"],
            "series.append_s": total["series.append"],
            "series.to_csv_s": total["series.to_csv"],
            "series.csv_bytes": self.csv_bytes,
            "lyapunov.certify_decay_s": total["lyapunov.certify_decay"],
            "lyapunov.equivalence_check_s": total["lyapunov.equivalence_check"],
            "cli.self_s": cli[1] - cli[2],
            "cli.bytes_written": bytes_written,
        }
