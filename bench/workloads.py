"""Workload specs and output checks of the feedbeam benchmark.

Each workload is a list of experiment specs (strict feedbeam JSON) written
from the workload seed, plus a check of the artifacts they produce. Only
the config seed depends on the workload seed; every shape is fixed here.
The checks are statistical bands or structural invariants, never pinned
values, so they hold for any seed and survive a change of random stream.
Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("probe-sweep", "outage-idealized", "oracle", "trace")
SIZES = ("full", "tiny")

# Deviations beyond this many standard errors fail a statistical check.
Z_WIDE = 6.0

# The acceptance-test reference point of the paper's outage bound.
_PHYSICS = dict(P=100.0, N_o=1.0, T_f=50, k_o=10.0, epsilon_o=0.05, delta=0.5)

# workload -> size -> shape. Full sizes are explained in README.md.
_SHAPES = {
    "probe-sweep": {
        "full": dict(M=2, sweep=[50, 100, 200, 400], trials=128),
        "tiny": dict(M=2, sweep=[8, 16], trials=8),
    },
    "outage-idealized": {
        "full": dict(M=2, N=200, trials=100_000),
        "tiny": dict(M=2, N=200, trials=2000),
    },
    "oracle": {
        "full": dict(Ns=[10, 11], trials=5000),
        "tiny": dict(Ns=[4, 5], trials=500),
    },
    "trace": {
        "full": dict(M=2, N=100, trials=256),
        "tiny": dict(M=2, N=8, trials=4),
    },
}


def config_seed(workload: str, seed: int) -> int:
    """The feedbeam config seed a workload seed stands for."""
    return random.Random(f"{workload}/{seed}").getrandbits(63)


def _config(seed: int, **shape) -> dict:
    return {**_PHYSICS, "seed": seed, "estimation_mode": "perfect", **shape}


def spec_docs(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The experiment documents of one workload, in execution order."""
    shape = _SHAPES[workload][size]
    s = config_seed(workload, seed)
    if workload == "probe-sweep":
        return [
            {
                "command": "interference-probe",
                "config": _config(s, M=shape["M"], N=shape["sweep"][0], trials=shape["trials"]),
                "sweep": shape["sweep"],
                "output_path": "probe.csv",
                "format": "csv",
            }
        ]
    if workload == "outage-idealized":
        return [
            {
                "command": "outage",
                "config": _config(s, M=shape["M"], N=shape["N"], trials=shape["trials"]),
                "output_path": "outage.csv",
                "format": "csv",
            }
        ]
    if workload == "oracle":
        return [
            {
                "command": "markov-verify",
                "config": _config(s, M=1, N=n, trials=shape["trials"]),
                "output_path": f"markov-{n}.json",
                "format": "json",
            }
            for n in shape["Ns"]
        ]
    if workload == "trace":
        return [
            {
                "command": "convergence",
                "config": _config(s, M=shape["M"], N=shape["N"], trials=shape["trials"]),
                "output_path": "trace.csv",
                "format": "csv",
            }
        ]
    raise ValueError(f"unknown workload {workload!r}")


def hitting_path(markov_output: str) -> str:
    """Artifact holding the hitting times of one markov-verify channel."""
    return markov_output.replace("markov-", "hitting-")


def op_names(workload: str, docs: list[dict]) -> list[str]:
    """The ops one execution of the workload attempts, in check order."""
    if workload == "probe-sweep":
        return [f"N={n}" for n in docs[0]["sweep"]]
    if workload == "oracle":
        return [d["output_path"] for d in docs] + [hitting_path(d["output_path"]) for d in docs]
    return [docs[0]["output_path"]]


def _csv_records(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="ascii").splitlines()
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def _numeric_csv(path: Path) -> tuple[list[str], np.ndarray]:
    header, _, body = path.read_text(encoding="ascii").partition("\n")
    columns = header.split(",")
    values = np.fromstring(body.replace("\n", ","), sep=",")
    return columns, values.reshape(-1, len(columns))


def _check_probe(docs: list[dict], out: Path) -> list[str | None]:
    sweep, trials = docs[0]["sweep"], docs[0]["config"]["trials"]
    found = {int(r["N"]): r for r in _csv_records(out / docs[0]["output_path"])}
    problems: list[str | None] = []
    for n in sweep:
        r = found.get(n)
        if r is None or int(r["trials"]) != trials:
            problems.append(f"N={n}: row missing or wrong trial count")
            continue
        # v = sum_j h_j w_j ~ N(0, N), so v^2 has mean N and variance 2 N^2.
        se = math.sqrt(2.0) * n / math.sqrt(trials)
        bad = [c for c in ("mean_sq", "control_sq") if abs(float(r[c]) - n) > Z_WIDE * se]
        problems.append(f"N={n}: {bad} off N by > {Z_WIDE} se ({se:.3g})" if bad else None)
    return problems


def _check_outage(docs: list[dict], out: Path) -> list[str | None]:
    records = _csv_records(out / docs[0]["output_path"])
    if len(records) != 1:
        return [f"expected one row, got {len(records)}"]
    r = records[0]
    p, se, bound = float(r["outage_empirical"]), float(r["stderr"]), float(r["bound_finite"])
    if int(r["trials"]) != docs[0]["config"]["trials"] or r["mode"] != "idealized":
        return ["wrong trial count or weights mode"]
    if not p <= bound + 3.0 * se:
        return [f"outage {p:.3g} above bound {bound:.3g} + 3 se ({se:.3g})"]
    return [None]


def _check_markov(doc: dict) -> str | None:
    for row in doc["expected_gain"]:
        # stderr is the exact chain's std over sqrt(trajectories).
        dev = abs(row["simulated"] - row["exact"])
        if not dev <= Z_WIDE * row["stderr"] + 1e-9 * (1.0 + abs(row["exact"])):
            return f"t={row['t']}: simulated mean off exact by {dev:.3g} (se {row['stderr']:.3g})"
    return None


def _check_hitting(markov: dict, hit: dict) -> str | None:
    tau = np.array(hit["tau"], dtype=float)
    absorbing = markov["absorbing_code"]
    if tau.size != len(markov["states"]) or not np.all(np.isfinite(tau)):
        return "hitting times missing or not finite"
    if tau[absorbing] != 0.0:
        return f"hitting time {tau[absorbing]!r} at the absorbing state"
    if not np.all(np.delete(tau, absorbing) > 0.0):
        return "a transient state has a nonpositive hitting time"
    if hit["mean"] != tau[markov["start_code"]]:
        return "mean is not the start state's hitting time"
    return None


def _check_oracle(docs: list[dict], out: Path) -> list[str | None]:
    markovs = [json.loads((out / d["output_path"]).read_text()) for d in docs]
    problems = [_check_markov(m) for m in markovs]
    for m, d in zip(markovs, docs):
        hit = json.loads((out / hitting_path(d["output_path"])).read_text())
        problems.append(_check_hitting(m, hit))
    return problems


def _check_trace(docs: list[dict], out: Path) -> list[str | None]:
    cfg = docs[0]["config"]
    frames = max(1, round(cfg["k_o"] * cfg["N"]))
    columns, rows = _numeric_csv(out / docs[0]["output_path"])
    if columns != ["trial", "group", "t", "gain", "aligned_count", "accepted"]:
        return [f"unexpected columns {columns}"]
    expected = cfg["trials"] * cfg["M"] * frames
    if rows.shape[0] != expected:
        return [f"{rows.shape[0]} rows, expected trials*M*frames = {expected}"]
    r = rows.reshape(cfg["trials"], cfg["M"], frames, len(columns))
    grid = np.meshgrid(np.arange(cfg["trials"]), np.arange(cfg["M"]), np.arange(frames), indexing="ij")
    if any(not np.array_equal(r[..., k], g) for k, g in enumerate(grid)):
        return ["rows are not ordered by (trial, group, t)"]
    if np.any(np.diff(r[..., 3], axis=2) < 0):
        return ["gain decreases within a (trial, group) trace"]
    if np.any(r[:, :, 0, 5] != 0) or not np.all(np.isin(r[..., 5], (0, 1))):
        return ["accepted is set at t=0 or not 0/1"]
    return [None]


_CHECKS = {
    "probe-sweep": _check_probe,
    "outage-idealized": _check_outage,
    "oracle": _check_oracle,
    "trace": _check_trace,
}


def check(workload: str, docs: list[dict], out: Path) -> list[str | None]:
    """One entry per op of ``op_names``: None if it passed, else the reason."""
    return _CHECKS[workload](docs, out)
