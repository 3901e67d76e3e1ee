"""Outside-in span tracing of the feedbeam layers.

``Tracer.install`` replaces each traced function of the package with a
wrapper at every module attribute of ``feedbeam.*`` that refers to it, so a
call is recorded whichever alias it goes through (``feedbeam.training``,
``feedbeam.outage`` and ``feedbeam.protocol`` all hold ``train_ensemble``).
Each call records one span: name, start, end, parent span and a few
attributes taken from its arguments and result after the span has ended.
Spans stay in memory until ``dump``; ``uninstall`` puts every original back.

``layer_metrics`` turns a span list into the per-layer metrics of the
benchmark. Self time is a span's duration minus that of its child spans,
where ``util.map_chunks`` counts as transparent: it only runs its caller's
chunk work, so the spans under it count as children of its own parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _train_attrs(fn, args, kwargs, res) -> dict:
    a = _bound(fn, args, kwargs)
    H, cfg = np.asarray(a["H"]), a["config"]
    frames = cfg.block_frames if a["n_frames"] is None else int(a["n_frames"])
    attrs = {
        "B": int(H.shape[0]),
        "frames": frames,
        "gain_sum": float(res.final_gain.sum()),
        "abs_sum": float(np.abs(H).sum()),
    }
    if res.accepted is not None and res.accepted.shape[1] > 1:
        # Column 0 is initialization, where nothing is proposed.
        attrs["accepted"] = int(res.accepted[:, 1:].sum())
        attrs["proposals"] = int(res.accepted[:, 1:].size)
    return attrs


def _markov_kind(model) -> str:
    return "dense" if model.transition is not None else "matfree"


def _build_attrs(fn, args, kwargs, res) -> dict:
    return {"kind": _markov_kind(res)}


def _distribution_attrs(fn, args, kwargs, res) -> dict:
    a = _bound(fn, args, kwargs)
    return {"kind": _markov_kind(a["model"]), "steps": int(a["t"])}


def _hitting_attrs(fn, args, kwargs, res) -> dict:
    return {"kind": _markov_kind(_bound(fn, args, kwargs)["model"])}


def _outage_attrs(fn, args, kwargs, res) -> dict:
    return {"trials": int(_bound(fn, args, kwargs)["config"].trials)}


def _map_attrs(fn, args, kwargs, res) -> dict:
    return {"chunks": len(_bound(fn, args, kwargs)["tasks"])}


def _csv_attrs(fn, args, kwargs, res) -> dict:
    return {"rows": len(_bound(fn, args, kwargs)["rows"])}


def _json_attrs(fn, args, kwargs, res) -> dict:
    doc = _bound(fn, args, kwargs)["doc"]
    return {"rows": len(doc) if isinstance(doc, list) else 1}


def _write_attrs(fn, args, kwargs, res) -> dict:
    return {"bytes": len(_bound(fn, args, kwargs)["text"].encode("utf-8"))}


# (span name, "module:attribute path", attribute extractor). Module-level
# functions are patched at every alias; a method is patched on its class.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli.run", "feedbeam.cli:run", None),
    ("cli.csv_text", "feedbeam.cli:_csv_text", _csv_attrs),
    ("cli.json_text", "feedbeam.cli:_json_text", _json_attrs),
    ("cli.atomic_write", "feedbeam.cli:_atomic_write", _write_attrs),
    ("training.train_ensemble", "feedbeam.training:train_ensemble", _train_attrs),
    ("training.run_convergence", "feedbeam.training:run_convergence", None),
    ("training.ensemble_gain_stats", "feedbeam.training:ensemble_gain_stats", None),
    ("markov.build_markov", "feedbeam.markov:build_markov", _build_attrs),
    ("markov.gain_distribution", "feedbeam.markov:gain_distribution", _distribution_attrs),
    ("markov.gain_moments_exact", "feedbeam.markov:gain_moments_exact", None),
    ("markov.one_step_absorb_probability", "feedbeam.markov:one_step_absorb_probability", None),
    ("markov.absorption_time_stats", "feedbeam.markov:absorption_time_stats", _hitting_attrs),
    ("outage.estimate_outage", "feedbeam.outage:estimate_outage", _outage_attrs),
    ("outage.interference_scaling_probe", "feedbeam.outage:interference_scaling_probe", None),
    ("bounds.outage_bound", "feedbeam.bounds:outage_bound", None),
    ("bounds.epsilon_max", "feedbeam.bounds:epsilon_max", None),
    ("util.map_chunks", "feedbeam.util:map_chunks", _map_attrs),
    ("rng.generator", "feedbeam.rng:RandomStream.generator", None),
)


class Tracer:
    """Records spans of the traced feedbeam functions while installed."""

    def __init__(self) -> None:
        # Each span is [id, name, start, end, parent id or None, attrs].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, attrs_of: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        package = [
            m for n, m in list(sys.modules.items()) if n == "feedbeam" or n.startswith("feedbeam.")
        ]
        for name, where, attrs_of in TARGETS:
            module_name, path = where.split(":")
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, attrs_of)
            if owners:
                holders = [(owner, attr)]
            else:
                holders = [
                    (mod, alias) for mod in package for alias, v in vars(mod).items() if v is original
                ]
            for holder, alias in holders:
                self._patched.append((holder, alias, original))
                setattr(holder, alias, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patched:
            holder, alias, original = self._patched.pop()
            setattr(holder, alias, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "attrs")
        with open(path, "w", encoding="utf-8") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its dumped spans."""
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def parent(s: dict) -> dict | None:
        p = by_id.get(s["parent"])
        while p is not None and p["name"] == "util.map_chunks":
            p = by_id.get(p["parent"])
        return p

    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        p = parent(s)
        if p is not None and s["name"] != "util.map_chunks":
            covered[p["id"]] += dur(s)

    def total(name: str, key: str | None = None, where: Callable = lambda s: True) -> float:
        return sum(
            (s["attrs"][key] if key else dur(s)) for s in by_name[name] if where(s)
        )

    m: dict[str, float] = {}
    train = by_name["training.train_ensemble"]
    trial_frames = sum(s["attrs"]["B"] * s["attrs"]["frames"] for s in train)
    busy = total("training.train_ensemble")
    m["training.calls"] = len(train)
    m["training.trial_frames"] = trial_frames
    m["training.busy_s"] = busy
    m["training.trial_frames_per_s"] = _ratio(trial_frames, busy)
    m["training.gain_ratio"] = _ratio(
        total("training.train_ensemble", "gain_sum"), total("training.train_ensemble", "abs_sum")
    )
    recorded = [s for s in train if "accepted" in s["attrs"]]
    m["training.accept_frac"] = _ratio(
        sum(s["attrs"]["accepted"] for s in recorded),
        sum(s["attrs"]["proposals"] for s in recorded),
    )

    for kind in ("dense", "matfree"):
        def of_kind(s: dict, kind: str = kind) -> bool:
            return s["attrs"]["kind"] == kind

        m[f"markov.build_s.{kind}"] = total("markov.build_markov", where=of_kind)
        m[f"markov.steps.{kind}"] = total("markov.gain_distribution", "steps", of_kind)
        m[f"markov.step_s.{kind}"] = total("markov.gain_distribution", where=of_kind)
        m[f"markov.hitting_s.{kind}"] = total("markov.absorption_time_stats", where=of_kind)

    outage = by_name["outage.estimate_outage"]
    outage_trials = total("outage.estimate_outage", "trials")
    outage_self = sum(dur(s) - covered[s["id"]] for s in outage)
    m["outage.trials"] = outage_trials
    m["outage.self_s"] = outage_self
    m["outage.trials_per_s"] = _ratio(outage_trials, outage_self)

    rows = total("cli.csv_text", "rows") + total("cli.json_text", "rows")
    serialize = total("cli.csv_text") + total("cli.json_text")
    m["cli.rows"] = rows
    m["cli.bytes"] = total("cli.atomic_write", "bytes")
    m["cli.serialize_s"] = serialize
    m["cli.rows_per_s"] = _ratio(rows, serialize)
    m["cli.write_s"] = total("cli.atomic_write")

    m["util.chunks"] = total("util.map_chunks", "chunks")
    m["util.map_s"] = total("util.map_chunks")

    # outage_bound calls epsilon_max itself; count only outermost bounds calls.
    bounds = [
        s
        for s in spans
        if s["name"].startswith("bounds.")
        and not (parent(s) or {"name": ""})["name"].startswith("bounds.")
    ]
    m["bounds.calls"] = len(bounds)
    m["bounds.busy_s"] = sum(dur(s) for s in bounds)

    m["rng.generators"] = len(by_name["rng.generator"])
    m["rng.generator_s"] = total("rng.generator")
    return m
