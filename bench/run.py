"""The feedbeam benchmark: end-to-end and per-layer metrics of four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/feedbeam`` must exist). Each
execution of the workload is a fresh ``python3 bench/child.py`` process
with one worker and BLAS pinned to one thread. Executions repeat until
``--seconds`` is used up (at least three), then the artifacts are checked
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (means over the
executions), with times at reference CPU speed (see speed.py). With ``--trace 1`` untraced and traced executions alternate;
the metrics are the per-layer ones from the traced executions' spans, plus
the tracing overhead. Lines before the last are a readable table and a
provenance record. Everything is written under ``.bench_build/`` in the
checkout; only ``.bench_build/results/`` is kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from speed import to_reference
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"

MIN_EXECUTIONS = 3
MIN_SETUPS = 6
# A run must end within 180 s: start no execution after HARD_STOP_S and
# kill one still running at DEADLINE_S, leaving time to check and report.
HARD_STOP_S = 120.0
DEADLINE_S = 165.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(args: argparse.Namespace, spec_files: list[Path]) -> dict:
    sources = hashlib.sha256()
    for p in sorted((ROOT / "src" / "feedbeam").glob("*.py")):
        sources.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "config_seed": workloads.config_seed(args.workload, args.seed),
        "spec_sha256": {p.name: _sha256(p) for p in spec_files},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": THREAD_ENV,
        "workers": 1,
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "machine": platform.machine(),
    }


def execute(
    args, run_dir: Path, spec_files: list[Path], index: int, kind: str, timeout: float
) -> dict:
    """Start one child process of the given kind ('plain', 'traced',
    'setup' or 'warmup') and wait for it. Returns its result with the artifact
    digests, or an 'error' entry if it failed."""
    rep_dir = run_dir / f"{index:03d}-{kind}"
    rep_dir.mkdir()
    request = {
        "workload": args.workload,
        "specs": [str(p) for p in spec_files],
        "trace": kind == "traced",
        "setup_only": kind in ("setup", "warmup"),
        "result": str(run_dir / f"{index:03d}.result.json"),
        "spans": str(run_dir / f"{index:03d}.spans.json"),
    }
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    t_spawn = time.perf_counter()
    request["t_spawn"] = t_spawn
    request_path = run_dir / f"{index:03d}.request.json"
    request_path.write_text(json.dumps(request))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(request_path)],
        cwd=rep_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except BaseException as e:
        proc.kill()
        proc.communicate()
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        return {"kind": kind, "error": f"killed after {timeout:.0f} s", "seconds": timeout}
    seconds = time.perf_counter() - t_spawn
    if proc.returncode != 0:
        return {"kind": kind, "error": f"exit {proc.returncode}: {err.strip()[-2000:]}", "seconds": seconds}
    result = json.loads(Path(request["result"]).read_text())
    result.update(kind=kind, seconds=seconds, dir=str(rep_dir))
    result["digests"] = {p.name: _sha256(p) for p in sorted(rep_dir.iterdir())}
    if kind == "traced":
        result["layers"] = layer_metrics(json.loads(Path(request["spans"]).read_text()))
    return result


def measure(args, run_dir: Path, spec_files: list[Path]) -> list[dict]:
    """One untimed warm-up process, then executions until --seconds is used
    up, then setup-only processes until MIN_SETUPS set-up times were taken.

    The warm-up writes the bytecode caches a fresh checkout lacks and pulls
    the interpreter and libraries into the page cache, so the first timed
    execution pays no more than the later ones."""
    kinds = ("plain", "traced") if args.trace else ("plain",)
    start = time.perf_counter()
    done: list[dict] = [execute(args, run_dir, spec_files, 0, "warmup", DEADLINE_S)]
    while True:
        elapsed = time.perf_counter() - start
        kind = kinds[(len(done) - 1) % len(kinds)]
        same = [r["seconds"] for r in done if r["kind"] == kind]
        expected = statistics.median(same) if same else 0.0
        timed = sum(r["kind"] in kinds for r in done)
        if elapsed > HARD_STOP_S or (timed >= MIN_EXECUTIONS and elapsed + expected > args.seconds):
            break
        done.append(execute(args, run_dir, spec_files, len(done), kind, start + DEADLINE_S - time.perf_counter()))
    while sum("setup_s" in r for r in done[1:]) < MIN_SETUPS and time.perf_counter() - start < HARD_STOP_S:
        done.append(execute(args, run_dir, spec_files, len(done), "setup", start + DEADLINE_S - time.perf_counter()))
    return done


def count_ops(args, docs: list[dict], executions: list[dict]) -> tuple[int, list[str]]:
    """Attempted ops and the reasons of failed ones. The first successful
    plain execution is checked; every other execution must leave
    byte-identical artifacts (same seed, traced or not), else its ops fail."""
    names = workloads.op_names(args.workload, docs)
    runs = [r for r in executions if r["kind"] in ("plain", "traced")]
    reference = next((r for r in runs if r["kind"] == "plain" and "error" not in r), None)
    checked = (
        workloads.check(args.workload, docs, Path(reference["dir"]))
        if reference is not None
        else [None] * len(names)
    )
    failures = []
    for i, r in enumerate(runs):
        if "error" in r:
            failures += [f"execution {i} ({r['kind']}) {op}: {r['error']}" for op in names]
        elif r["digests"] != reference["digests"]:
            failures += [f"execution {i} ({r['kind']}) {op}: artifacts differ from the checked execution" for op in names]
        else:
            failures += [f"execution {i} {op}: {why}" for op, why in zip(names, checked) if why]
    return len(names) * len(runs), failures


def _stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "q1": q[0],
        "q3": q[2],
        "n": len(values),
    }


def summarize(args, executions: list[dict]) -> dict[str, dict]:
    """Each metric's mean, median, quartiles and sample count. The mean is
    the reported value: a run holds only three to seven executions, so the
    mean of all of them varies less from run to run than their median does
    (see README.md). Without tracing, the raw times and the speed
    calibration are given too, under names that are not metrics."""
    ok = [r for r in executions if "error" not in r and r["kind"] != "warmup"]
    plain = [r for r in ok if r["kind"] == "plain"]
    out: dict[str, dict] = {}
    if not args.trace:
        for name, rs in (("wall_s", plain), ("setup_s", ok)):
            out[name] = _stats([to_reference(r[name], r["unit_s"]) for r in rs])
            out[f"{name}.raw"] = _stats([r[name] for r in rs])
        out["unit_s"] = _stats([r["unit_s"] for r in ok])
        out["peak_rss_mb"] = _stats([r["peak_rss_mb"] for r in plain])
        return out
    traced = [r for r in ok if r["kind"] == "traced"]
    for name in traced[0]["layers"]:
        out[name] = _stats([r["layers"][name] for r in traced])
    out["config.load_s"] = _stats([r["load_s"] for r in ok])
    out["import_s"] = _stats([r["import_s"] for r in ok])
    plain_wall = statistics.fmean(r["wall_s"] for r in plain)
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    out["trace.overhead_frac"] = _stats([(traced_wall - plain_wall) / plain_wall])
    return out


def _units(trace: bool) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="'tiny' shrinks every workload, for the benchmark's own tests")
    args = p.parse_args(argv)
    # Turn SIGTERM into an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "feedbeam" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"no feedbeam source checkout at {ROOT}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_build" / f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    results_dir = ROOT / ".bench_build" / "results"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    try:
        docs = workloads.spec_docs(args.workload, args.seed, args.size)
        spec_files = []
        for k, doc in enumerate(docs):
            spec_files.append(run_dir / f"spec-{k}.json")
            spec_files[-1].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        prov = provenance(args, spec_files)
        executions = measure(args, run_dir, spec_files)
        attempted, failures = count_ops(args, docs, executions)
        measured = {r["kind"] for r in executions if "error" not in r}
        if "plain" not in measured or (args.trace and "traced" not in measured):
            for f in failures:
                print(f, file=sys.stderr)
            print("no successful execution to measure", file=sys.stderr)
            return 1
        stats = summarize(args, executions)
        tag = f"{args.workload}-{args.seed}-t{args.trace}"
        record = {
            "provenance": prov,
            "attempted": attempted,
            "failures": failures,
            "ops_failed_frac": len(failures) / attempted,
            "metrics": stats,
            "executions": [{k: v for k, v in r.items() if k != "dir"} for r in executions],
        }
        (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            last = max(i for i, r in enumerate(executions) if r["kind"] == "traced" and "error" not in r)
            shutil.copyfile(run_dir / f"{last:03d}.spans.json", results_dir / f"{tag}.spans.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = _units(bool(args.trace))
    for f in failures[:20]:
        print(f"FAILED {f}")
    extra = {} if args.trace else {"wall_s.raw": "s", "setup_s.raw": "s", "unit_s": "s"}
    for name, unit in {**units, **extra}.items():
        s = stats[name]
        print(f"{name:32s} {s['mean']:14.6g} {unit:6s} median {s['median']:.6g} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n={s['n']}")
    print(f"{'ops_failed_frac':32s} {len(failures) / attempted:14.6g} frac   ({len(failures)}/{attempted} ops)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": stats[name]["mean"], "unit": u} for name, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
