"""Span recording around the public entry points of each package layer.

The wrappers are installed by replacing module attributes at the places the
layers call each other, so nothing under ``src/`` changes:

    kinematics     close_batch, and _close_arrays as bound in cross_section
    algebra        dirac_spinor_batch, dirac_spinor_bar_batch, slash_batch
                   as bound in amplitude
    amplitude      amplitude_tensor
    cross_section  unpolarized_differential_batch, unpolarized_sigma5_batch
                   as bound in integration; sigma5_panel_grids and
                   threshold_boundary as bound in cli
    integration    stratified_monte_carlo, plus the integrand it is given
    entanglement   density_from_amplitudes, gme_tau

Spans (name, layer, start, end, parent, run id) stay in memory until the run
ends.  Counts are read after a span's timer stops.  A span's self time is its
duration minus the durations of its direct children; the self times of every
span plus the command time outside all spans (``cli.self_s``) add up to the
command's wall time.
"""
from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from triplecompton import (amplitude, cli, cross_section, entanglement,
                           integration, kinematics)

# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = ("amplitude.points", "cross_section.points",
                "integration.samples", "entanglement.iterations",
                "cross_section.boundary_closure_calls")


class Patches:
    """Module attributes replaced for one command, restored afterwards."""

    def __init__(self):
        self._saved = []

    def set(self, module, name, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def restore(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


def capture_tau_results(patches: Patches, sink: list) -> None:
    """Keep every TauResult so witnesses can be checked after the command."""
    solve = entanglement.gme_tau

    def gme_tau(*args, **kwargs):
        result = solve(*args, **kwargs)
        sink.append(result)
        return result
    patches.set(entanglement, "gme_tau", gme_tau)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one command; ``run`` labels them in the written trace."""

    def __init__(self, run: int):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = run

    def wrap(self, layer: str, name: str, fn, post=None):
        """fn inside a span; post(span, args, result) reads counts after the
        timer stops."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, 0.0, 0.0,
                        stack[-1] if stack else None, self.run)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if post is not None:
                post(span, args, result)
            return result
        return traced

    def current(self) -> Span:
        return self.spans[self._stack[-1]]

    def install(self, patches: Patches) -> None:
        def points(span, args, result):
            span.attrs["points"] = int(np.asarray(args[1]).shape[1])

        def closure(span, args, result):
            span.attrs["points"] = int(result[4].size)
            span.attrs["physical"] = int(np.count_nonzero(result[4]))

        def differential(span, args, result):
            span.attrs["points"] = int(result.size)
            span.attrs["nonzero"] = int(np.count_nonzero(result))

        def panels(span, args, result):
            grids, masked = result
            live = np.zeros(masked.shape, bool)
            for grid in grids.values():
                live |= grid != 0.0
            span.attrs["points"] = int(masked.size)
            span.attrs["nonzero"] = int(np.count_nonzero(live))

        def solved(span, args, result):
            span.attrs["iterations"] = int(result.iterations)

        wrap = self.wrap
        for module, name, layer, post in (
                (cross_section, "_close_arrays", "kinematics", closure),
                (kinematics, "close_batch", "kinematics", closure),
                (amplitude, "dirac_spinor_batch", "algebra", None),
                (amplitude, "dirac_spinor_bar_batch", "algebra", None),
                (amplitude, "slash_batch", "algebra", None),
                (amplitude, "amplitude_tensor", "amplitude", points),
                (integration, "unpolarized_differential_batch",
                 "cross_section", differential),
                (integration, "unpolarized_sigma5_batch", "cross_section",
                 differential),
                (cli, "sigma5_panel_grids", "cross_section", panels),
                (cli, "threshold_boundary", "cross_section", None),
                (entanglement, "density_from_amplitudes", "entanglement",
                 None),
                (entanglement, "gme_tau", "entanglement", solved)):
            patches.set(module, name, wrap(layer, f"{layer}.{name}",
                                           getattr(module, name), post))
        patches.set(integration, "stratified_monte_carlo",
                    wrap("integration", "integration.stratified_monte_carlo",
                         self._sampler(integration.stratified_monte_carlo)))

    def _sampler(self, run_sampler):
        """stratified_monte_carlo with a traced integrand that accumulates
        weight sums per stratum."""
        def sampler(integrand, dim, strata, *args, **kwargs):
            counts = tuple(int(c) for c in strata)
            sums = {}

            def batch(span, call_args, weights):
                x = call_args[0]
                w = np.asarray(weights, float)
                cell = 0
                for axis, c in enumerate(counts):
                    # rows of one batch share a stratum: (i + u)/c, u in [0,1)
                    cell = cell * c + min(int(x[:, axis].mean() * c), c - 1)
                n, s1, s2 = sums.get(cell, (0, 0.0, 0.0))
                sums[cell] = (n + w.size, s1 + float(w.sum()),
                              s2 + float((w * w).sum()))
                span.attrs["samples"] = int(w.size)
                span.attrs["nonzero"] = int(np.count_nonzero(w))

            span = self.current()
            result = run_sampler(
                self.wrap("integration", "integration.integrand", integrand,
                          batch), dim, strata, *args, **kwargs)
            n_all = sum(n for n, _, _ in sums.values())
            s1_all = sum(s1 for _, s1, _ in sums.values())
            s2_all = sum(s2 for _, _, s2 in sums.values())
            mean_vars = [max(s2 / n - (s1 / n) ** 2, 0.0) / max(n - 1, 1)
                         for n, s1, s2 in sums.values()]
            span.attrs["samples"] = int(result[2])
            span.attrs["ess_frac"] = (s1_all * s1_all / (n_all * s2_all)
                                      if s2_all > 0 else 0.0)
            span.attrs["worst_stratum_var_share"] = (
                max(mean_vars) / sum(mean_vars) if sum(mean_vars) > 0
                else 0.0)
            return result
        return sampler


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> float:
    """Highest percentile with at least ten samples beyond it, or the
    maximum when there are fewer than twenty samples."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[-1] if len(values) < 20 else values[-11]


def layer_metrics(spans: list, wall: float, bytes_written: int,
                  residuals: list) -> dict:
    """Per-layer metrics of one traced command from its spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    self_s = [s.duration - child[k] for k, s in enumerate(spans)]

    def of(layer=None, name=None):
        return [(s, self_s[k]) for k, s in enumerate(spans)
                if (layer is None or s.layer == layer)
                and (name is None or s.name == name)]

    def total(items, key):
        return sum(s.attrs.get(key, 0) for s, _ in items)

    def busy(items):
        return sum(t for _, t in items)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    amp = of("amplitude")
    m["amplitude.calls"] = len(amp)
    m["amplitude.points"] = total(amp, "points")
    m["amplitude.self_s"] = busy(amp)
    m["amplitude.points_per_s"] = ratio(
        m["amplitude.points"], sum(s.duration for s, _ in amp))

    alg = of("algebra")
    m["algebra.calls"] = len(alg)
    m["algebra.self_s"] = busy(alg)

    xs = of("cross_section")
    evaluated = [item for item in xs
                 if item[0].name != "cross_section.threshold_boundary"]
    boundary = of(name="cross_section.threshold_boundary")
    boundary_ids = {k for k, s in enumerate(spans)
                    if s.name == "cross_section.threshold_boundary"}
    m["cross_section.calls"] = len(xs)
    m["cross_section.points"] = total(evaluated, "points")
    m["cross_section.self_s"] = busy(xs)
    m["cross_section.nonzero_frac"] = ratio(total(evaluated, "nonzero"),
                                            m["cross_section.points"])
    m["cross_section.boundary_s"] = sum(s.duration for s, _ in boundary)
    m["cross_section.boundary_closure_calls"] = sum(
        1 for s in spans if s.name == "kinematics.close_batch"
        and s.parent is not None and s.parent in boundary_ids)

    sampler = of(name="integration.stratified_monte_carlo")
    batches = of(name="integration.integrand")
    batch_ms = [s.duration * 1e3 for s, _ in batches]
    m["integration.samples"] = total(sampler, "samples")
    m["integration.batches"] = len(batches)
    m["integration.self_s"] = busy(of("integration"))
    m["integration.samples_per_s"] = ratio(
        m["integration.samples"], sum(s.duration for s, _ in sampler))
    m["integration.nonzero_frac"] = ratio(total(batches, "nonzero"),
                                          total(batches, "samples"))
    m["integration.ess_frac"] = min(
        (s.attrs["ess_frac"] for s, _ in sampler), default=0.0)
    m["integration.worst_stratum_var_share"] = max(
        (s.attrs["worst_stratum_var_share"] for s, _ in sampler),
        default=0.0)
    m["integration.batch_p50_ms"] = _median(batch_ms)
    m["integration.batch_tail_ms"] = tail(batch_ms)

    kin = of("kinematics")
    m["kinematics.calls"] = len(kin)
    m["kinematics.points"] = total(kin, "points")
    m["kinematics.self_s"] = busy(kin)
    m["kinematics.physical_frac"] = ratio(total(kin, "physical"),
                                          m["kinematics.points"])

    density = of(name="entanglement.density_from_amplitudes")
    solves = of(name="entanglement.gme_tau")
    iters = [s.attrs["iterations"] for s, _ in solves
             if "iterations" in s.attrs]
    # a cell runs from its density matrix to the end of its witness solve
    cell_ms = []
    start = None
    for s in spans:
        if s.name == "entanglement.density_from_amplitudes":
            start = s.start
        elif s.name == "entanglement.gme_tau" and start is not None:
            cell_ms.append((s.end - start) * 1e3)
            start = None
    m["entanglement.cells"] = len(solves)
    m["entanglement.density_s"] = busy(density)
    m["entanglement.gme_s"] = busy(solves)
    m["entanglement.iterations"] = sum(iters)
    m["entanglement.us_per_iter"] = ratio(
        sum(s.duration for s, _ in solves) * 1e6, sum(iters))
    m["entanglement.iters_p50"] = _median(iters)
    m["entanglement.iters_max"] = max(iters, default=0)
    m["entanglement.cell_p50_ms"] = _median(cell_ms)
    m["entanglement.cell_tail_ms"] = tail(cell_ms)
    m["entanglement.solver_failures"] = sum(
        1 for s, _ in solves if "error" in s.attrs)
    m["entanglement.max_witness_residual"] = max(residuals, default=0.0)

    m["cli.self_s"] = wall - sum(s.duration for s in spans
                                 if s.parent is None)
    m["cli.bytes_written"] = bytes_written
    return m
