"""One execution of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py REQUEST.json

The request (written by run.py) names the workload, the spec files, where
to write the result, whether to trace, and ``t_spawn``: the parent's
``time.perf_counter()`` just before it started this process. On Linux that
clock is system-wide, so ``setup_s`` runs from before interpreter start to
the point where feedbeam is imported and every spec is parsed. ``unit_s``
is the mean of the speed calibrations (see speed.py) taken after set-up
and, when the workload runs, after the workload. The process runs with the
current directory set to its own artifact directory.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _run_workload(workload: str, specs: list, cli) -> None:
    for spec in specs:
        cli.run(spec, workers=1, mode="idealized")
    if workload != "oracle":
        return
    import numpy as np
    from feedbeam import markov
    from workloads import hitting_path

    for spec in specs:
        # The channel is read back from the artifact (JSON floats round-trip
        # exactly), so the chain is the one markov-verify just checked.
        with open(spec.output_path, encoding="utf-8") as f:
            h = np.array(json.load(f)["h"], dtype=float)
        mean, tau = markov.absorption_time_stats(markov.build_markov(h))
        with open(hitting_path(spec.output_path), "w", encoding="utf-8") as f:
            json.dump({"N": int(h.size), "mean": mean, "tau": tau.tolist()}, f)


def main(request_path: str) -> int:
    with open(request_path, encoding="utf-8") as f:
        req = json.load(f)
    t = time.perf_counter()
    import feedbeam.cli as cli

    import_s = time.perf_counter() - t
    t = time.perf_counter()
    specs = [cli.load_config(p) for p in req["specs"]]
    load_s = time.perf_counter() - t
    result = {"setup_s": time.perf_counter() - req["t_spawn"], "import_s": import_s, "load_s": load_s}
    # Imported only now, so that numpy's import stays inside import_s.
    from speed import calibrate

    units = [calibrate()]
    if not req["setup_only"]:
        tracer = None
        if req["trace"]:
            from tracer import Tracer

            tracer = Tracer().install()
        try:
            t = time.perf_counter()
            _run_workload(req["workload"], specs, cli)
            result["wall_s"] = time.perf_counter() - t
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units.append(calibrate())
        if tracer is not None:
            tracer.dump(req["spans"])
    result["unit_s"] = sum(units) / len(units)

    with open(req["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
