"""Span tracing of fracmp's public functions, installed from outside.

The package imports names with ``from .x import f``, so a wrapper must be
bound in every module that holds the original, the defining module included
(its own callers look the name up there).  Spans are kept in flat arrays in
memory -- name, start, end and parent span -- and written out at the end.
"""
from __future__ import annotations

import gzip
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

# Layer-boundary functions per module.  Helpers called inside every energy
# evaluation (as_grid_function, phi_p, f_eval, F_eval, bb_alpha) are left
# unwrapped: tracing them would multiply the span count and the overhead.
TRACED = {
    "grid": ("build_grid", "norms", "read_gridfn", "write_gridfn"),
    "config": ("parse_config", "validate_config", "load_potential"),
    "kernel": ("assemble_kernel", "seminorm_p", "norm_W", "apply_flap",
               "quadratic_form_matrix"),
    "model": ("make_nonlinearity", "validate_H1", "validate_AR",
              "primitive_envelope", "make_potential", "make_problem",
              "energy", "gradient", "residual_norm"),
    "eigen": ("first_eigenpair", "inverse_power_lambda1", "torsion_solve",
              "torsion_energy", "torsion_gradient", "rayleigh"),
    "solve": ("sobolev_constant", "certify_constants", "construct_endpoints",
              "ring_samples", "descend", "classify", "mountain_pass",
              "comparison_check", "positivity_check", "distinct",
              "find_second_solution"),
    "sweep": ("sweep", "fit_powerlaw", "export"),
    "cli": ("main",),
}

# Kernel calls whose memory is measured: the peak of the arrays allocated
# during the call (numpy reports them to tracemalloc).  tracemalloc doubles
# the cost of a kernel call at n = 96, so each call signature -- function,
# n, p and input shape -- is measured on its first call only, and every call
# adds its signature's peak to kernel.bytes_computed.
MEASURED = ("kernel.seminorm_p", "kernel.apply_flap")


def _signature(name, args, kwargs):
    u = args[0] if args else kwargs["u"]
    K = args[1] if len(args) > 1 else kwargs["K"]
    return name, K.n, K.p, np.shape(u)


# name -> hook(name, args, kwargs, result) -> (total name, amount)
_HOOKS = {
    "eigen.first_eigenpair": lambda n, a, k, r: (
        "eigen.first_eigenpair.iterations", r.iterations),
    "eigen.torsion_solve": lambda n, a, k, r: (
        "eigen.torsion_solve.iterations", r.iterations),
    "solve.mountain_pass": lambda n, a, k, r: (
        "solve.mountain_pass.levels", len(r.trace)),
    "solve.find_second_solution": lambda n, a, k, r: (
        "solve.second_found", int(r is not None)),
}


class Tracer:
    """Records one span per call of every function in TRACED."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.totals: dict[str, float] = {}
        self.peak_bytes: dict[tuple, int] = {}
        self._stack = [-1]

    def install(self) -> None:
        originals = {}
        for mod, funcs in TRACED.items():
            module = sys.modules["fracmp." + mod]
            for fn in funcs:
                originals[id(getattr(module, fn))] = self._wrap(
                    "%s.%s" % (mod, fn), getattr(module, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "fracmp" and not modname.startswith("fracmp."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        measured = name in MEASURED
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        totals, peak_bytes = self.totals, self.peak_bytes

        def traced(*args, **kwargs):
            sig = peak = None
            if measured:
                sig = _signature(name, args, kwargs)
                peak = peak_bytes.get(sig)
                if peak is None:
                    tracemalloc.start()
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if measured:
                if peak is None:
                    peak = peak_bytes[sig] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                totals["kernel.bytes_computed"] = totals.get("kernel.bytes_computed", 0) + peak
            if hook is not None:
                key, amount = hook(name, args, kwargs, result)
                totals[key] = totals.get(key, 0) + amount
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Calls, inclusive and self time per function, plus derived counts."""
        n_spans = len(self.start)
        mp = self.names.index("solve.mountain_pass")
        second = self.names.index("solve.find_second_solution")
        dur = [self.end[i] - self.start[i] for i in range(n_spans)]
        child = [0.0] * n_spans
        # 1 under a mountain-pass span, 2 under a second-solution search;
        # parents precede their children, so one forward pass suffices
        under = [0] * n_spans
        for i in range(n_spans):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
                pn = self.name_id[par]
                under[i] = 1 if pn == mp else 2 if pn == second else under[par]
        out: dict[str, float] = {}
        for name in self.names:
            out[name + ".calls"] = 0
            out[name + ".s"] = 0.0
            out[name + ".self_s"] = 0.0
        for name in ("solve.mountain_pass.energy_calls",
                     "solve.mountain_pass.gradient_calls"):
            out[name] = 0
        descents = 0
        for i in range(n_spans):
            name = self.names[self.name_id[i]]
            out[name + ".calls"] += 1
            out[name + ".s"] += dur[i]
            out[name + ".self_s"] += dur[i] - child[i]
            if under[i] == 1 and name in ("model.energy", "model.gradient"):
                out["solve.mountain_pass.%s_calls" % name[6:]] += 1
            elif under[i] == 2 and name == "solve.descend":
                descents += 1
        for key in ("kernel.bytes_computed", "eigen.first_eigenpair.iterations",
                    "eigen.torsion_solve.iterations", "solve.mountain_pass.levels"):
            out[key] = self.totals.get(key, 0)
        found = self.totals.get("solve.second_found", 0)
        out["solve.second_found_ratio"] = found / descents if descents else 0.0
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated id, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.parent[i], self.names[self.name_id[i]],
                    self.start[i], self.end[i]))
