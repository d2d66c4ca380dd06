"""Run one camopt benchmark workload and print its metrics.

    python3 bench/run.py --workload circle2d_hybrid --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
BENCHMARK.json at the root names the workloads and the metrics; this script
emits exactly the metrics it names.

--trace 0 measures the end-to-end metrics with tracing off: the set-up time is
the median over fresh processes, each importing camopt and building the
inputs; then generated instances run one after another (one client, one call
in flight) for about --seconds, every call's outputs are checked, and run_s is
the median wall time of those calls.

--trace 1 gives the per-layer metrics: instance 0 runs once untraced and once
traced (every module-level function of the camopt layers wrapped from
outside), and the CLI workload runs its cells again with --threads 2 to give
cli.thread_scaling. The traced rig must equal the untraced one.

Every metric is printed by name with its unit, the full record (host, seed,
per-call times, fingerprints, every span) goes to .bench_out/, and the last
line of standard output is the JSON result.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_out"
SETUP_REPS = 5
TAIL_SAMPLES = 10      # a reported percentile needs this many samples beyond it

# end-to-end figures printed and recorded beside the bounded ones; they are
# not bounded because they vary bimodally between instance seeds (uc,
# angle_quality), exist on the hybrid workloads only (crit8_grad_ms), or are
# the result line's failed / attempted (fail_frac)
SIDE_UNITS = {"uc": "1", "angle_quality": "1", "crit8_grad_ms": "ms", "fail_frac": "1"}

LAYER_MODULES = ("scene", "cloudio", "visibility", "attributes", "field",
                 "autodiff", "hybrid", "metrics", "baselines", "cli")


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "camopt" / "__init__.py").is_file():
        _fail(f"no camopt sources under {SRC}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path[:0] = [str(SRC), str(HERE)]
    import camopt  # noqa: F401


# ---------------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------------

def _git_commit():
    """HEAD from .git without running git, which would search above the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(seed, load_at_start):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "loadavg_at_start": list(load_at_start),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# timing helpers
# ---------------------------------------------------------------------------

def timing_summary(samples):
    """Median, plus the highest percentile that has TAIL_SAMPLES samples
    beyond it (none below TAIL_SAMPLES + 1 samples), with the sample count."""
    ordered = sorted(samples)
    out = {"n": len(ordered), "median": statistics.median(ordered)}
    if len(ordered) > TAIL_SAMPLES:
        rank = len(ordered) - TAIL_SAMPLES    # samples at or below the percentile
        out[f"p{100.0 * rank / len(ordered):g}"] = ordered[rank - 1]
    return out


def probe_setup(workload_name, seed):
    """Child side of a set-up sample: import camopt, build instance 0."""
    t0 = time.perf_counter()
    _import_package()
    from workloads import WORKLOADS, instance_seed
    WORKLOADS[workload_name].build(instance_seed(seed, 0), WORK / f"probe_{os.getpid()}")
    elapsed = time.perf_counter() - t0
    shutil.rmtree(WORK / f"probe_{os.getpid()}", ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(workload_name, seed):
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# one timed call
# ---------------------------------------------------------------------------

def run_instance(workload, seed, index, workdir, threads=1, around_run=contextlib.nullcontext):
    """Build, run (timed, inside around_run()) and check one instance;
    returns (seconds, Outcome)."""
    from workloads import Outcome, instance_seed
    iseed = instance_seed(seed, index)
    inst = workload.build(iseed, workdir)
    try:
        with around_run():
            wall, result = workload.run(inst, threads=threads)
    except Exception:
        tb = traceback.format_exc()
        print(f"[{workload.name}] instance {iseed} raised:\n{tb}", file=sys.stderr)
        return None, Outcome(attempted=1, failed=1, fingerprint="", uc=float("nan"),
                             angle_quality=float("nan"), violations=[tb])
    outcome = workload.check(inst, result)
    for v in outcome.violations:
        print(f"[{workload.name}] instance {iseed} CHECK FAILED: {v}")
    return wall, outcome


# ---------------------------------------------------------------------------
# --trace 0: end-to-end
# ---------------------------------------------------------------------------

def end_to_end(workload, seed, seconds, record):
    from workloads import HybridWorkload, instance_seed
    record["setup_samples_s"] = measure_setup(workload.name, seed)
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(run_instance(workload, seed, len(runs), WORK / "instances"))
        elapsed = time.perf_counter() - start
        walls = [w for w, _ in runs if w is not None]
        typical = statistics.mean(walls) if walls else elapsed / len(runs)
        if elapsed + 0.5 * typical >= seconds:
            break
    shutil.rmtree(WORK / "instances", ignore_errors=True)

    outcomes = [o for _, o in runs]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    ok = [o for o in outcomes if o.failed == 0]
    record["instances"] = [
        {"seed": instance_seed(seed, i), "wall_s": w, "fingerprint": o.fingerprint,
         "uc": o.uc, "angle_quality": o.angle_quality, "crit8_grad_ms": o.crit8_grad_ms,
         "violations": o.violations}
        for i, (w, o) in enumerate(runs)]
    record["run_s_summary"] = timing_summary(walls) if walls else None
    record["setup_s_summary"] = timing_summary(record["setup_samples_s"])

    def median_of(attr):
        return statistics.median(getattr(o, attr) for o in ok) if ok else float("nan")

    values = {
        "run_s": statistics.median(walls) if walls else float("nan"),
        "setup_s": statistics.median(record["setup_samples_s"]),
        "uc": median_of("uc"),
        "angle_quality": median_of("angle_quality"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / attempted,
    }
    if isinstance(workload, HybridWorkload):
        values["crit8_grad_ms"] = median_of("crit8_grad_ms")
    return values, attempted, failed


# ---------------------------------------------------------------------------
# --trace 1: per-layer
# ---------------------------------------------------------------------------

def _hooks(tracer):
    def voxels(tr, args, kwargs, grid):
        tr.add("scene.voxels", len(grid))

    def visible(tr, args, kwargs, vis):
        tr.add("visible_set.empty", int(not vis))
        tr.add("visible_set.voxels", len(vis))

    def grad_phase(tr, args, kwargs, result):
        tr.add("grad_phase.inner_steps", result[3])

    def non_grad(tr, args, kwargs, result):
        tr.add("non_grad_phase.commits", len(result[1]))

    def outer(tr, args, kwargs, result):
        tr.add("hybrid.outer_iters", max(r.index for r in result[1].records))

    def accepted(tr, args, kwargs, result):
        tr.add("accept_proposal.true", int(bool(result)))

    for name, hook in (("scene.voxelize", voxels), ("visibility.visible_set", visible),
                       ("hybrid.grad_phase", grad_phase),
                       ("hybrid.non_grad_phase", non_grad),
                       ("hybrid.optimize", outer),
                       ("baselines.accept_proposal", accepted)):
        tracer.on_result(name, hook)
    tracer.count_under("field.lean_neof", "autodiff.adam_step")
    tracer.count_under("hybrid.non_grad_phase", "visibility.visible_set")


def layer_tracing(tracer):
    """Context manager routing every camopt layer function through tracer."""
    from camopt.autodiff import Tensor
    return traced(tracer, LAYER_MODULES, methods=[(Tensor, "backward", "autodiff.backward")])


def traced_run(workload, seed, workdir, threads):
    tracer = Tracer()
    _hooks(tracer)
    wall, outcome = run_instance(workload, seed, 0, workdir, threads=threads,
                                 around_run=lambda: layer_tracing(tracer))
    return tracer, wall, outcome


def _ratio(num, den):
    return num / den if den else 0.0


SPAN_STATS = {"calls": Tracer.calls, "ms": Tracer.self_ms, "incl_ms": Tracer.incl_ms}


def layer_values(tr, wanted, untraced_s, traced_s, untraced, thread_scaling):
    """Every per-layer figure the tracer can give, by metric name: the
    ``<span>.calls|ms|incl_ms`` of every span seen or wanted (0 when the span
    never ran), and the derived figures below."""
    c = tr.counters.get
    values = {}
    spans = set(tr.stats) | {span for span, stat in (n.rsplit(".", 1) for n in wanted)
                             if stat in SPAN_STATS}
    for span in spans:
        for stat, get in SPAN_STATS.items():
            values[f"{span}.{stat}"] = get(tr, span)
    for module in LAYER_MODULES:
        values[f"{module}.self_ms"] = tr.total_self_ms(module + ".")
    vs_calls = tr.calls("visibility.visible_set")
    steps = c("field.lean_neof>autodiff.adam_step", 0)
    inner = c("grad_phase.inner_steps", 0)
    evals = c("hybrid.non_grad_phase>visibility.visible_set", 0)
    commits = c("non_grad_phase.commits", 0)
    values.update({
        "scene.voxels": _ratio(c("scene.voxels", 0), tr.calls("scene.voxelize")),
        "visibility.visible_set.empty_frac": _ratio(c("visible_set.empty", 0), vs_calls),
        "visibility.visible_set.mean_voxels": _ratio(c("visible_set.voxels", 0), vs_calls),
        "field.lean_neof.steps": steps,
        "field.lean_neof.ms_per_step": _ratio(tr.incl_ms("field.lean_neof"), steps),
        "hybrid.grad_phase.inner_steps": inner,
        "hybrid.grad_phase.ms_per_inner_step": _ratio(tr.incl_ms("hybrid.grad_phase"), inner),
        "hybrid.non_grad_phase.commits": commits,
        "hybrid.non_grad_phase.candidate_evals": evals,
        "hybrid.non_grad_phase.commit_ratio": _ratio(commits, evals),
        "hybrid.outer_iters": c("hybrid.outer_iters", 0),
        "hybrid.crit8_grad_ms": untraced.crit8_grad_ms,
        "baselines.accept_ratio": _ratio(c("accept_proposal.true", 0),
                                         tr.calls("baselines.accept_proposal")),
        "cli.thread_scaling": thread_scaling,
        "result.uc": untraced.uc,
        "result.angle_quality": untraced.angle_quality,
        "trace.run_ms": traced_s * 1e3,
        "trace.unattributed_ms": traced_s * 1e3 - tr.total_self_ms(),
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    })
    return values


def per_layer(workload, seed, record, wanted):
    from workloads import AnnealCliWorkload
    workdir = WORK / "instances"
    untraced_s, untraced = run_instance(workload, seed, 0, workdir)
    tracer, traced_s, outcome = traced_run(workload, seed, workdir, threads=1)
    outcomes = [untraced, outcome]
    violations = []
    if untraced_s is None or traced_s is None:
        _fail("the instance raised; no per-layer figures")
    if outcome.fingerprint != untraced.fingerprint:
        violations.append("traced rig differs from the untraced rig")

    thread_scaling = 0.0
    if isinstance(workload, AnnealCliWorkload):
        try:
            _, t2_s, t2 = traced_run(workload, seed, workdir, threads=2)
        except SystemExit:
            record["thread_scaling"] = "unavailable: camopt optimize rejected --threads"
        else:
            outcomes.append(t2)
            if t2.fingerprint != untraced.fingerprint:
                violations.append("--threads 2 rig differs from the --threads 1 rig")
            thread_scaling = traced_s / t2_s
            record["threads2_traced_s"] = t2_s
    shutil.rmtree(workdir, ignore_errors=True)

    for v in violations:
        print(f"[{workload.name}] CHECK FAILED: {v}")
    record["fingerprints"] = [o.fingerprint for o in outcomes]
    record["spans"] = {name: {"calls": row[0], "incl_ms": row[1] * 1e3, "self_ms": row[2] * 1e3}
                       for name, row in sorted(tracer.stats.items())}
    record["counters"] = dict(sorted(tracer.counters.items()))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if violations:
        failed = max(failed, 1)
    values = layer_values(tracer, [m["name"] for m in wanted], untraced_s, traced_s,
                          untraced, thread_scaling)
    return values, attempted, failed


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    load_at_start = os.getloadavg()
    if not SPEC.is_file():
        _fail(f"missing {SPEC.name} at the checkout root")
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")
    _import_package()
    WORK.mkdir(exist_ok=True)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "host": host_record(args.seed, load_at_start)}
    if args.trace:
        wanted = spec["per_layer"]
        values, attempted, failed = per_layer(workload, args.seed, record, wanted)
    else:
        values, attempted, failed = end_to_end(workload, args.seed, args.seconds, record)
        wanted = spec["end_to_end"]

    units = {**SIDE_UNITS, **{m["name"]: m["unit"] for m in wanted}}
    shown = [name for name in values if name in units]
    record["values"] = values
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['host']['git_commit'][:12]} nproc={record['host']['nproc']} "
          f"load={record['host']['loadavg_at_start'][0]:.2f}")
    for key in ("run_s_summary", "setup_s_summary"):
        if record.get(key):
            print(f"# {key}: {record[key]}")
    for inst in record.get("instances", []):
        print(f"# instance {inst['seed']}: {inst['wall_s']} s "
              f"rig {inst['fingerprint'][:16]} uc {inst['uc']:.6f} "
              f"angle_quality {inst['angle_quality']:.6f}")
    for fp in record.get("fingerprints", []):
        print(f"# rig {fp}")
    for name in shown:
        print(f"{name} = {values[name]!r} {units[name]}")
    print(f"# operations attempted {attempted}, failed {failed}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _fail(f"no value for metrics {missing}")
    out = WORK / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
