"""triplecompton benchmark: one CLI workload, timed, checked and reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the ``src/`` directory next to ``perfbench/``
and nowhere else; every file the benchmark writes goes under
``.perfbench_work/`` in the same checkout.  All load comes from this one
process: the command runs in-process through ``triplecompton.cli.main``.

Set-up is the import of numpy and the package plus the median of nine
rounds of config generation, config resolution and one warm-up call at a
tiny size; ``setup_s`` scales it by the speed probe (see ``PROBE_REF_S``),
because raw set-up time follows the machine's drift.  Then the command
repeats with the same inputs until ``--seconds`` have passed (at least
twice):

* ``--trace 0`` reports the end-to-end metrics of the untraced repetitions;
* ``--trace 1`` alternates traced and untraced repetitions and reports the
  per-layer metrics of the traced repetition with the median wall time,
  the tracing overhead, and writes the spans of every traced repetition.

A repetition fails when the command exits non-zero, when its output fails
the workload's correctness check, when its ``--out`` files differ from the
first repetition's, or (traced) when an exact count differs from the first
traced repetition's.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 9
# The speed probe's kernel time on the 2-core x86-64 machine the bounds in
# BENCHMARK.json were set on.  setup_s is scaled by it, so it reads as
# set-up seconds on that machine at the speed the probe saw during set-up.
PROBE_REF_S = 0.009
MIN_REPETITIONS = 2
END_TO_END_UNITS = {"setup_s": "s", "wall_norm": "probe", "peak_rss_mb": "MB"}


class SpeedProbe:
    """Times a fixed CPU-bound kernel every PERIOD seconds while a command
    runs, from a SIGALRM handler in this process.

    On a shared 2-core x86-64 virtual machine the speed drifts with load
    from other tenants of the host: identical work took 0.29-0.70 s within
    four minutes, and medians over 20-s windows spread by 14%.  The ratio of
    a command's time to this kernel's mean time during the command moves far
    less, because both slow down together.  The kernel mixes small stacked
    complex products, 8x8 Hermitian eigendecompositions and interpreter
    work; it uses only numpy and the interpreter, never the package, so a
    faster program lowers the ratio and a faster machine does not.  Time
    spent in the handler is subtracted from the command's wall time.
    Process CPU time is no substitute: it slows down with the machine too,
    and over ten seeds per workload its spread was 0.10-0.25 of its median
    where this ratio's was 0.03-0.05.
    """

    PERIOD = 0.2

    def __init__(self, np):
        rng = np.random.default_rng(12345)
        self.np = np
        self.small = (rng.standard_normal((64, 4, 4))
                      + 1j * rng.standard_normal((64, 4, 4)))
        herm = rng.standard_normal((7, 8, 8)) + 1j * rng.standard_normal(
            (7, 8, 8))
        self.herm = herm + herm.conj().swapaxes(-1, -2)
        self.samples = []

    def kernel_seconds(self) -> float:
        np = self.np
        start = time.perf_counter()
        x = self.small
        for _ in range(75):
            x = np.einsum('nab,nbc->nac', self.small, x)
            x = x / np.abs(x).max()
        for _ in range(20):
            np.linalg.eigh(self.herm)
        total = 0
        for i in range(30000):
            total += i * i % 7
        return time.perf_counter() - start

    def _sample(self, signum, frame) -> None:
        self.samples.append(self.kernel_seconds())

    @contextlib.contextmanager
    def sampling(self):
        """Collect kernel timings: one before, then one per PERIOD."""
        self.samples = [self.kernel_seconds()]
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def in_command_s(self) -> float:
        return sum(self.samples[1:])

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Pin BLAS/OpenMP threads before numpy loads, at most nproc."""
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    return threads


def blas_runtime_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads_pinned": threads,
        "blas_threads_runtime": blas_runtime_threads(np),
        "machine": platform.machine(),
    }


def out_digest(out: Path) -> tuple[str, int]:
    """sha256 over the names and bytes of every output file, and their size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(data)
        size += len(data)
    return digest.hexdigest(), size


def run_command(cli, argv) -> tuple[int, float, str]:
    """cli.main(argv) with its console output captured; (code, wall, log)."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = -1
            traceback.print_exc()
        wall = time.perf_counter() - start
    return code, wall, log.getvalue()


def set_up(cli, config, probe, wl, seed, work: Path):
    """Write and resolve the configs and warm up, timing the probe kernel
    after each round; (median seconds per round, median probe seconds), or
    None when the warm-up call fails."""
    rounds, probes = [], []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        (work / "run.cfg").write_text(wl.config_text(seed))
        (work / "warmup.cfg").write_text(wl.config_text(seed, warmup=True))
        config.resolve_config(
            None, config.parse_config_file(work / "run.cfg"), {"seed": seed})
        code, _, log = run_command(cli, wl.argv(
            work / "warmup.cfg", work / "warmup", seed, budget=128))
        rounds.append(time.perf_counter() - start)
        if code != 0:
            print(f"benchmark: warm-up failed ({code}):\n{log}",
                  file=sys.stderr)
            return None
        probes.append(probe.kernel_seconds())
    return statistics.median(rounds), statistics.median(probes)


def repeat(cli, tracing, probe, wl, seed, work: Path, seconds: float,
           trace: bool) -> tuple[list, list]:
    """Run the command until ``seconds`` have passed; (repetitions, tracers).

    Untraced repetitions run under the speed probe; traced ones alternate
    with them, starting with a traced one."""
    reps, tracers = [], []
    began = time.perf_counter()
    while True:
        n_traced = sum(r["traced"] for r in reps)
        n_plain = len(reps) - n_traced
        if (time.perf_counter() - began >= seconds
                and len(reps) >= MIN_REPETITIONS
                and (not trace or (n_traced >= 2 and n_plain >= 1))):
            return reps, tracers
        traced = trace and n_traced <= n_plain
        out = work / f"out_{len(reps)}"
        taus = []
        patches = tracing.Patches()
        tracing.capture_tau_results(patches, taus)
        tracer = None
        if traced:
            tracer = tracing.Tracer(len(reps))
            tracer.install(patches)
        try:
            with contextlib.nullcontext() if traced else probe.sampling():
                code, wall, log = run_command(
                    cli, wl.argv(work / "run.cfg", out, seed))
        finally:
            patches.restore()
        rep = {"traced": traced, "code": code, "log": log, "out": out,
               "wall": wall, "probe": None}
        if not traced:
            rep["wall"] = wall - probe.in_command_s
            rep["probe"] = probe.mean_s
        rep["digest"], rep["bytes"] = (out_digest(out) if out.is_dir()
                                       else ("", 0))
        rep["residuals"] = [t.witness.max_residual for t in taus]
        if tracer is not None:
            tracers.append(tracer)
            rep["layers"] = tracing.layer_metrics(
                tracer.spans, rep["wall"], rep["bytes"], rep["residuals"])
        reps.append(rep)


def failures_of(reps: list, wl, seed, refs, check, exact_counts) -> list:
    """(repetition, problems) for every failed repetition.  Repetition 0 is
    checked against the references; the others must reproduce its files."""
    first = reps[0]
    first_traced = next((r for r in reps if r["traced"]), None)
    failures = []
    for k, rep in enumerate(reps):
        problems = []
        if rep["code"] != 0:
            problems.append(f"exit code {rep['code']}: "
                            f"{rep['log'].strip()[-300:]}")
        elif k == 0:
            problems += check(wl, rep["out"], seed, refs, rep["residuals"])
        else:
            if rep["digest"] != first["digest"]:
                problems.append("--out files differ from repetition 0")
            if any(not r <= 1e-6 for r in rep["residuals"]):
                problems.append("witness residual above 1e-6")
        if rep["traced"] and rep["code"] == 0:
            base = first_traced["layers"]
            problems += [f"{name} = {rep['layers'][name]}, first traced "
                         f"repetition had {base[name]}"
                         for name in exact_counts
                         if rep["layers"][name] != base[name]]
        if problems:
            failures.append((k, problems))
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "triplecompton" / "cli.py").is_file():
        print(f"benchmark: no triplecompton sources under {SRC}",
              file=sys.stderr)
        return 2
    threads = pin_blas_threads()

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    from triplecompton import cli, config
    t_import = time.perf_counter() - t_import
    if Path(cli.__file__).resolve().parent != SRC / "triplecompton":
        print(f"benchmark: imported {cli.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS, check, worst_rel_error
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = args.seed % (1 << 63)
    refs = json.loads((HERE / "references.json").read_text())
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probe = SpeedProbe(np)
    setup = set_up(cli, config, probe, wl, seed, work)
    if setup is None:
        return 3
    rounds_s, setup_probe_s = setup
    setup_raw_s = t_import + rounds_s
    setup_s = setup_raw_s * PROBE_REF_S / setup_probe_s
    reps, tracers = repeat(cli, tracing, probe, wl, seed, work, args.seconds,
                           bool(args.trace))
    failures = failures_of(reps, wl, seed, refs, check, tracing.EXACT_COUNTS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = reps[0]

    plain = [r for r in reps if not r["traced"]]
    wall_s = statistics.median(r["wall"] for r in plain)
    # contention from other tenants only slows repetitions down, so the lower
    # quartile of the probe-normalized times is the steadiest statistic
    norms = [r["wall"] / r["probe"] for r in plain]
    wall_norm = (statistics.quantiles(norms, n=4, method="inclusive")[0]
                 if len(norms) > 1 else norms[0])
    # a failed first repetition may report no estimate, or a zero one
    first_ok = all(k != 0 for k, _ in failures)
    rel_err = (worst_rel_error(wl, first["out"])
               if wl.monte_carlo and first_ok else 0.0)
    time_to_1pct = (wall_s * (rel_err / 0.01) ** 2 if wl.monte_carlo
                    else wall_s)
    end_to_end = {"setup_s": setup_s, "wall_norm": wall_norm,
                  "peak_rss_mb": peak_rss_mb}
    if args.trace:
        traced = sorted((r for r in reps if r["traced"]),
                        key=lambda r: r["wall"])
        chosen = traced[(len(traced) - 1) // 2]
        per_layer = dict(chosen["layers"])
        per_layer["trace.wall_s"] = chosen["wall"]
        per_layer["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in traced) - wall_s)
        per_layer["integration.time_to_1pct_s"] = (
            time_to_1pct if wl.monte_carlo else 0.0)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": per_layer[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    env = environment(np, threads)
    rate_name = "samples_per_s" if wl.monte_carlo else "cells_per_s"
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {seed}  placement "
          f"{wl.placement(seed) if wl.grid else '-'}  repetitions "
          f"{len(reps)} ({sum(r['traced'] for r in reps)} traced)")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"out_sha256 {first['digest']}")
    print("walls_s " + " ".join(
        f"{r['wall']:.4f}{'T' if r['traced'] else ''}" for r in reps))
    print("probe_ms " + " ".join(f"{r['probe'] * 1e3:.2f}" for r in plain))
    print(f"  setup_s        {setup_s:.4f} s   (measured {setup_raw_s:.4f} s"
          f" with the probe kernel at {setup_probe_s * 1e3:.2f} ms)")
    print(f"  wall_norm      {wall_norm:.4f} probe"
          "   (lower quartile of wall / probe-kernel time)")
    print(f"  wall_s         {wall_s:.4f} s   (median)")
    print(f"  {rate_name:<14s} {wl.points / wall_s:.4f} 1/s")
    print(f"  time_to_1pct_s {time_to_1pct:.4f} s"
          + (f"   (worst rel. error {rel_err:.4f})" if wl.monte_carlo
             else "   (deterministic: wall_s)"))
    print(f"  peak_rss_mb    {peak_rss_mb:.1f} MB")
    print(f"  failed_frac    {len(failures) / len(reps):.4f} "
          f"({len(failures)}/{len(reps)})")
    if args.trace:
        for name, entry in metrics.items():
            exact = "  exact" if name in tracing.EXACT_COUNTS else ""
            print(f"  {name:<40s} {entry['value']:.6g} {entry['unit']}"
                  f"{exact}")
        layer_self = sum(v for k, v in per_layer.items()
                         if k.endswith(("self_s", "density_s", "gme_s")))
        print(f"  layer self times + cli.self_s = {layer_self:.6f} s, "
              f"traced wall_s = {chosen['wall']:.6f} s")
    for k, problems in failures:
        for problem in problems:
            print(f"FAILED repetition {k}: {problem}")

    record = {"workload": wl.name, "seed": seed, "trace": args.trace,
              "env": env, "out_sha256": first["digest"],
              "walls_s": [r["wall"] for r in reps],
              "probe_s": [r["probe"] for r in reps],
              "traced": [r["traced"] for r in reps],
              "wall_s": wall_s, "time_to_1pct_s": time_to_1pct,
              "failures": failures, "metrics": metrics}
    (work / f"result-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    if tracers:
        with open(work / f"spans-seed{seed}.jsonl", "w") as fh:
            for tracer in tracers:
                for s in tracer.spans:
                    fh.write(json.dumps({
                        "name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "run": s.run, **s.attrs}) + "\n")
    for rep in reps[1:]:
        shutil.rmtree(rep["out"], ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": len(reps),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
