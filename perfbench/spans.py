"""Spans around the package's public functions, recorded from outside it.

A Tracer replaces module and class attributes with wrappers for the time it
is active. It patches the binding each caller actually looks up at call
time: `problems.solve_forward`, not `mesh_fem.solve_forward`, because
problems.py imported the name. Each call appends one span
[name, start, end, parent index, note] to an in-memory list; the note holds
numbers read from the call's arguments or result. Self times are derived
from the spans afterwards, so the wrappers do no bookkeeping beyond the list.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from vbdesign import cli, map_opt, problems, stiefel, topo_prior, validation, vb


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _lu_nnz(args, kwargs, sol):
    # SystemSolution.K_factorization is the bound solve method of the factor
    factor = getattr(sol.K_factorization, "__self__", sol.K_factorization)
    nnz = getattr(factor, "nnz", None)
    return None if nnz is None else {"lu_nnz": int(nnz)}


def _phi_mean_sites(args, kwargs, result):
    sweeps = _arg(args, kwargs, 2, "sweeps")
    return {"site_updates": int(sweeps) * len(result)}


def _map_counts(args, kwargs, res):
    return {"iterations": len(res.trace) - 1,
            "halvings": sum(int(r.get("halvings", 0)) for r in res.trace),
            "forward_calls": int(res.forward_calls)}


def _vbem_counts(args, kwargs, res):
    return {"iterations": int(res.iterations), "converged": int(bool(res.converged))}


def _report_values(args, kwargs, rep):
    return {"forward_calls": int(rep.forward_calls), "nKL": float(rep.nKL),
            "ess": float(rep.ess)}


# (owner, attribute, note). The span name is the wrapped function's module
# (the layer) and qualified name, e.g. "mesh_fem.solve_forward".
PROBE_TARGETS = [
    # the three calls the end-to-end times are cut at; one each per
    # repetition, so wrapping them costs microseconds
    (cli, "build_problem", None),
    (vb, "sensitive_directions", None),
    (validation, "estimate_nKL", _report_values),
]

FULL_TARGETS = PROBE_TARGETS + [
    (cli, "run", None),
    (cli, "make_heat_problem", None),
    (cli, "make_topo_problem", None),
    (problems, "build_covariance", None),
    (problems, "assemble_diffusion", None),
    (problems, "assemble_elasticity", None),
    (problems, "solve_forward", _lu_nnz),
    (problems.ForwardModel, "evaluate", None),
    (problems.ForwardModel, "last_jacobians", None),
    (map_opt, "optimize_map", _map_counts),
    (topo_prior, "build_neighbor_graph", None),
    (topo_prior, "estimate_phi_mean", _phi_mean_sites),
    (vb, "run_vbem", _vbem_counts),
    (vb, "vb_expectation", None),
    (vb, "evaluate_F", None),
    (vb, "sample_designs", None),
    (stiefel, "optimize_W", lambda a, k, r: {"steps": int(r.steps)}),
    (stiefel, "cayley_step", None),
]

LAYERS = ("cli", "random_field", "mesh_fem", "problems", "topo_prior", "map_opt",
          "vb", "stiefel", "validation")


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


class Tracer:
    """Context manager that records a span per call of each target."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, note in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name(original), note))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return wrapper

    def first(self, name):
        """The first span of that name, or None."""
        return next((s for s in self.spans if s[0] == name), None)

    def write(self, fh, rep):
        for i, (name, start, end, parent, note) in enumerate(self.spans):
            fh.write(json.dumps({"rep": rep, "id": i, "name": name, "start": start,
                                 "end": end, "parent": parent, "note": note}) + "\n")


def aggregate(spans):
    """Per span name: calls, inclusive seconds, self seconds and the notes'
    values collected per key."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        a = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": {}})
        a["calls"] += 1
        a["s"] += end - start
        a["self_s"] += end - start - child[i]
        for key, val in (note or {}).items():
            a["notes"].setdefault(key, []).append(val)
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced repetition, as name -> (value, unit)."""
    agg = aggregate(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": {}}

    def get(name):
        return agg.get(name, empty)

    def note_sum(name, key):
        return sum(get(name)["notes"].get(key, []))

    m = {}
    m["random_field.build_covariance.s"] = (get("random_field.build_covariance")["s"], "s")
    m["mesh_fem.assemble.s"] = (get("mesh_fem.assemble_diffusion")["s"]
                                + get("mesh_fem.assemble_elasticity")["s"], "s")
    solve = get("mesh_fem.solve_forward")
    m["mesh_fem.solve_forward.calls"] = (solve["calls"], "count")
    m["mesh_fem.solve_forward.s"] = (solve["s"], "s")
    nnz = solve["notes"].get("lu_nnz", [])
    m["mesh_fem.lu_nnz"] = (int(statistics.median(nnz)) if nnz else 0, "count")
    m["problems.jacobians.s"] = (get("problems.ForwardModel.last_jacobians")["s"], "s")

    phi = get("topo_prior.estimate_phi_mean")
    m["topo_prior.estimate_phi_mean.calls"] = (phi["calls"], "count")
    m["topo_prior.estimate_phi_mean.s"] = (phi["s"], "s")
    sites = note_sum("topo_prior.estimate_phi_mean", "site_updates")
    m["topo_prior.site_updates_per_s"] = (sites / phi["s"] if phi["s"] > 0 else 0.0, "1/s")

    m["map_opt.optimize_map.s"] = (get("map_opt.optimize_map")["s"], "s")
    for key in ("iterations", "halvings", "forward_calls"):
        m[f"map_opt.{key}"] = (note_sum("map_opt.optimize_map", key), "count")

    for fn in ("vb_expectation", "evaluate_F"):
        m[f"vb.{fn}.calls"] = (get(f"vb.{fn}")["calls"], "count")
        m[f"vb.{fn}.s"] = (get(f"vb.{fn}")["s"], "s")
    m["vb.run_vbem.iterations"] = (note_sum("vb.run_vbem", "iterations"), "count")
    m["vb.run_vbem.converged"] = (note_sum("vb.run_vbem", "converged"), "count")

    m["stiefel.optimize_W.s"] = (get("stiefel.optimize_W")["s"], "s")
    trials = get("stiefel.cayley_step")["calls"]
    accepted = note_sum("stiefel.optimize_W", "steps")
    m["stiefel.cayley_step.calls"] = (trials, "count")
    m["stiefel.accepted_steps"] = (accepted, "count")
    m["stiefel.accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")

    nkl = get("validation.estimate_nKL")
    m["validation.estimate_nKL.s"] = (nkl["s"], "s")
    m["validation.nKL"] = (statistics.median(nkl["notes"].get("nKL", [0.0])), "ratio")
    m["validation.ess"] = (statistics.median(nkl["notes"].get("ess", [0.0])), "count")

    # cli's self time is reported as that of cli.run, its artifact writing
    m["cli.run.self_s"] = (get("cli.run")["self_s"], "s")
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = (sum(a["self_s"] for n, a in agg.items()
                                    if n.split(".", 1)[0] == layer), "s")
    m["trace.spans"] = (len(spans), "count")
    return m
