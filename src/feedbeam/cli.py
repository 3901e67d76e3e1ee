"""Command-line front end: config loading and orchestration.

An experiment is described by a JSON document::

    {
      "command": "outage",
      "config": { "M": 2, "N": 200, "P": 100.0, "N_o": 1.0, "T_f": 50,
                  "k_o": 10.0, "epsilon_o": 0.05, "delta": 0.5,
                  "seed": 42, "estimation_mode": "perfect", "trials": 100000 },
      "sweep": [50, 100, 200],        # optional list of N values
      "output_path": "outage.csv",    # optional
      "format": "csv"                 # optional, "csv" or "json"
    }

The file must be UTF-8, and unknown or repeated keys are rejected at any
level. ``--command``, ``--out``, ``--format`` and ``--seed`` override the
file. A spec checks its values when it is built, so one built in code gets
the same checks as a spec file; the flags of ``run`` check theirs the same
way. The parser only parses: the spec and ``run`` hold every valid value
and default, and ``main`` passes ``run`` only the flags given. A flag the
parser cannot read is a ``ConfigError`` too, so ``main`` returns the code of
any bad input with one JSON line on stderr and never raises; only
``--help`` exits.

A runner computes; it returns the column table its CSV is written from, its
JSON document and its summary lines. ``run`` alone picks the writer of
``artifact``: ``_json_text`` of the document or ``_csv_text`` of the rows. The
columns of a per-N command are the fields of its result dataclass, in field
order, and named extras: ``slope`` after ``ProbeRow``, ``N`` and ``M``
before ``ProtocolReport`` and ``rate_assumed`` after it. JSON rows of
``outage`` add ``link``; the probe's JSON is its ``ProbeResult``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .artifact import FORMATS, UnwritablePathError, _atomic_write, _csv_text, _json_text
from .artifact import _table, _Table
from .bounds import BoundReport, epsilon_max, outage_bound
from .config import NetworkConfig
from .errors import CapacityError, ConfigError, FeedbeamError
from .markov import STATE_LIMIT, build_markov, gain_moments_exact, one_step_absorb_probability
from .outage import WEIGHTS_MODES, OutageResult, ProbeRow
from .outage import estimate_outage, interference_scaling_probe, plan_outage
from .protocol import ProtocolReport, compare_protocols, expected_interference_power
from .rng import RandomStream
from .training import ensemble_gain_stats, run_convergence

__all__ = [
    "COMMANDS", "FORMATS", "ExperimentSpec",
    "load_config", "loads_config", "serialize", "run", "main",
]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN_COMMAND = 3
EXIT_UNWRITABLE = 4


class UnknownCommandError(FeedbeamError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a command, its scenario, and output disposition.

    Checked when built: from a file, in code or by ``dataclasses.replace``.
    """

    command: str | None
    config: NetworkConfig
    sweep: tuple[int, ...] | None = None
    output_path: str | None = None
    format: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.config, NetworkConfig):
            raise ConfigError(f"config must be a NetworkConfig, got {type(self.config).__name__}")
        if self.sweep is not None:
            if not isinstance(self.sweep, (list, tuple)) or not self.sweep:
                raise ConfigError("sweep must be a nonempty list of integers")
            for n in self.sweep:
                if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                    raise ConfigError(f"sweep entries must be integers >= 1, got {n!r}")
            if len(set(self.sweep)) < len(self.sweep):
                raise ConfigError(f"sweep entries must be distinct, got {list(self.sweep)!r}")
            object.__setattr__(self, "sweep", tuple(self.sweep))
        if self.format is not None and self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        # A NUL cannot be in a file name; the OS calls would raise ValueError for it. An empty
        # path names no file, and `resolved` would write the default one in its place.
        out = self.output_path
        if out is not None and (not isinstance(out, str) or not out or "\0" in out):
            raise ConfigError(f"output_path must be a nonempty string with no NUL, got {out!r}")
        if self.command is None:
            return
        # Membership in the tuple, not the table: an unhashable command is unknown too.
        if self.command not in COMMANDS:
            raise UnknownCommandError(
                f"unknown command {self.command!r}; expected one of: {', '.join(COMMANDS)}"
            )
        if self.sweep is not None and not _TABLE[self.command].sweepable:
            raise ConfigError(f"command {self.command!r} does not support an N sweep")
        if self.command in ("bounds", "outage") and not self.config.epsilon_o < epsilon_max():
            raise ConfigError(
                f"epsilon_o={self.config.epsilon_o} is infeasible for command {self.command!r}: "
                f"it must be below the feasibility threshold epsilon_max() = {epsilon_max():.5f}"
            )

    def resolved(self) -> "ExperimentSpec":
        """Fill per-command defaults for format and output path."""
        if self.command is None:
            raise ConfigError("no command given (set it in the config file or with --command)")
        fmt = self.format or _TABLE[self.command].default_format
        out = self.output_path or f"{self.command}.{fmt}"
        return dataclasses.replace(self, format=fmt, output_path=out)


_TOP_LEVEL_KEYS = ("command", "config", "sweep", "output_path", "format")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a key given twice is an error, not the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def loads_config(text: str) -> ExperimentSpec:
    """Parse an experiment document (no key repeated) from JSON; the spec checks its values."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:  # a repeated key, an over-long integer, deep nesting
        raise ConfigError(f"config parse error: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("experiment document must be a JSON object")
    unknown = sorted(set(doc) - set(_TOP_LEVEL_KEYS))
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
    if "config" not in doc:
        raise ConfigError("missing key: config")
    return ExperimentSpec(
        command=doc.get("command"),
        config=NetworkConfig.from_dict(doc["config"]),
        sweep=doc.get("sweep"),
        output_path=doc.get("output_path"),
        format=doc.get("format"),
    )


def load_config(path: str) -> ExperimentSpec:
    """Load an experiment spec from a JSON file (strict schema)."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path!r} is not valid UTF-8: {e}")
    return loads_config(text)


def serialize(spec: ExperimentSpec) -> str:
    """JSON text such that loads_config(serialize(spec)) == spec."""
    doc: dict[str, Any] = {"command": spec.command, "config": dataclasses.asdict(spec.config)}
    for key in ("sweep", "output_path", "format"):
        value = getattr(spec, key)
        if value is not None:
            doc[key] = list(value) if key == "sweep" else value
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# command runners: each returns the column table the CSV is written from, the
# JSON document and the summary lines; `run` picks the writer

_Result = tuple[_Table, Any, list[str]]


@dataclass(frozen=True)
class _Flags:
    """Flags beyond the spec, checked when built; each runner reads the ones it needs."""

    workers: int
    mode: str
    channel: np.ndarray | None

    def __post_init__(self) -> None:
        if isinstance(self.workers, bool) or not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigError(f"workers must be an integer >= 1, got {self.workers!r}")
        if self.mode not in WEIGHTS_MODES:
            raise ConfigError(f"mode must be one of {WEIGHTS_MODES}, got {self.mode!r}")


def _n_values(spec: ExperimentSpec) -> list[int]:
    return list(spec.sweep) if spec.sweep else [spec.config.N]


def _fields(record: type) -> list[str]:
    return [f.name for f in dataclasses.fields(record)]


def _per_n(
    spec: ExperimentSpec, columns: Sequence[str], docs: list[dict], summary: list[str]
) -> _Result:
    """One record per N: rows of ``columns``, and all fields as the JSON
    document (a list only when N is swept).
    """
    rows = _table(columns, [[d[c] for d in docs] for c in columns])
    return rows, docs[0] if spec.sweep is None else docs, summary


def _cmd_convergence(spec: ExperimentSpec, flags: _Flags) -> _Result:
    cfg = spec.config
    res = run_convergence(cfg, RandomStream(cfg.seed, "convergence"), workers=flags.workers)
    ratio = res.gain[:, :, -1].mean() / res.abs_sum.mean()
    k = res.gain.shape[2]
    summary = [
        f"convergence N={cfg.N} M={cfg.M} trials={cfg.trials} "
        f"frames={k} final_gain_ratio={ratio:.4f}"
    ]
    # Each index column in the smallest unsigned type that holds it; the trace
    # columns are the result's own arrays, not copies.
    trial, group, t = (
        np.arange(n, dtype=np.min_scalar_type(n - 1)) for n in (cfg.trials, cfg.M, k)
    )
    rows = _table(
        ("trial", "group", "t", "gain", "aligned_count", "accepted"),
        [
            np.repeat(trial, cfg.M * k),
            np.tile(np.repeat(group, k), cfg.trials),
            np.tile(t, cfg.trials * cfg.M),
            res.gain.reshape(-1),
            res.aligned_count.reshape(-1),
            res.accepted.reshape(-1),
        ],
    )
    return rows, rows, summary


def _cmd_markov_verify(spec: ExperimentSpec, flags: _Flags) -> _Result:
    cfg = spec.config
    if cfg.N > STATE_LIMIT:  # refused before h is drawn
        raise CapacityError(f"exact chain supports 1 <= N <= {STATE_LIMIT}, got N={cfg.N}")
    if flags.channel is not None:
        h = np.asarray(flags.channel, dtype=float)
        if h.size != cfg.N:
            raise ConfigError(f"--channel has {h.size} entries but config N={cfg.N}")
    else:
        h = RandomStream(cfg.seed, "markov/h").generator().standard_normal(cfg.N)
    model = build_markov(h)
    p_abs = one_step_absorb_probability(model)

    t_checks = [1, 10, 50]
    moments = [gain_moments_exact(model, t) for t in t_checks]
    exact = np.array([m[0] for m in moments])
    # True (chain-induced) Monte Carlo standard error: sample variance
    # degenerates once every trajectory is absorbed.
    errs = np.array([m[1] for m in moments]) / math.sqrt(cfg.trials)
    sim_mean = ensemble_gain_stats(
        h, t_checks, cfg, RandomStream(cfg.seed, "markov/sim"), workers=flags.workers
    )
    # An absorbing start has std 0: floor it at the rounding of a mean, as criterion 2 does.
    floor = 1e-12 * (1.0 + np.abs(exact))
    worst = float(np.max(np.abs(sim_mean - exact) / np.maximum(errs, floor)))
    summary = [
        f"markov-verify N={cfg.N} states={model.n_states} "
        f"absorbing_code={model.absorbing_index} max_dev={worst:.2f} stderr units "
        f"over t={t_checks} ({cfg.trials} trajectories)"
    ]
    rows = _table(
        ("state_code", "gain", "p_to_absorbing"), [np.arange(model.n_states), model.gains, p_abs]
    )
    doc = {
        "N": cfg.N,
        "h": h,
        "absorbing_code": model.absorbing_index,
        "start_code": model.start_index,
        "states": rows,
        "expected_gain": [
            {"t": t, "exact": exact[k], "simulated": sim_mean[k], "stderr": errs[k]}
            for k, t in enumerate(t_checks)
        ],
    }
    return rows, doc, summary


def _cmd_bounds(spec: ExperimentSpec, flags: _Flags) -> _Result:
    reports = [outage_bound(n, spec.config) for n in _n_values(spec)]
    summary = [
        f"bounds N={r.N} M={r.M} rate={r.rate:.4f} bound_finite={r.bound_finite:.4g} "
        f"bound_asymptotic={r.bound_asymptotic:.4g}"
        for r in reports
    ]
    return _per_n(spec, _fields(BoundReport), [dataclasses.asdict(r) for r in reports], summary)


def _cmd_outage(spec: ExperimentSpec, flags: _Flags) -> _Result:
    cfg = spec.config
    points = [cfg.replace(N=n) for n in _n_values(spec)]
    # Every point's bound, and so its feasibility, and its plan are settled before any draw.
    rates = [outage_bound(p.N, p).rate for p in points]
    for p in points:
        plan_outage(p, flags.mode)
    results = [
        estimate_outage(
            p, rate, flags.mode, RandomStream(cfg.seed, f"outage/N/{p.N}"), workers=flags.workers
        )
        for p, rate in zip(points, rates)
    ]
    summary = [
        f"outage N={r.N} rate={r.rate:.4f} empirical={r.outage_empirical:.6f} ("
        + (f"+-{r.stderr:.6f}, " if 0.0 < r.outage_empirical < 1.0 else "")
        + f"95% CI [{r.ci_low:.6f}, {r.ci_high:.6f}]) "
        f"bound_finite={r.bound_finite:.4g} mode={r.mode}"
        for r in results
    ]
    # By link symmetry only link 0 is ever evaluated; the JSON rows say so.
    docs = [{**dataclasses.asdict(r), "link": 0} for r in results]
    return _per_n(spec, _fields(OutageResult), docs, summary)


def _cmd_interference_probe(spec: ExperimentSpec, flags: _Flags) -> _Result:
    cfg = spec.config
    n_values = _n_values(spec)
    probe = interference_scaling_probe(
        cfg, n_values, RandomStream(cfg.seed, "probe"), workers=flags.workers
    )
    summary = [
        f"interference-probe N={r.N} trials={r.trials} mean_sq={r.mean_sq:.3f} "
        f"control_sq={r.control_sq:.3f}"
        for r in probe.rows
    ]
    summary.append(f"interference-probe slope={probe.slope:.4f} over N={n_values}")
    cells = [(*dataclasses.astuple(r), probe.slope) for r in probe.rows]
    return _table([*_fields(ProbeRow), "slope"], list(zip(*cells))), probe, summary


def _cmd_protocol_compare(spec: ExperimentSpec, flags: _Flags) -> _Result:
    if spec.config.M < 2:
        raise ConfigError("protocol-compare requires M >= 2")
    rate_assumed = 1.0  # the ordering of the two protocols does not depend on R
    docs, summary = [], []
    for n in _n_values(spec):
        cfg_n = spec.config.replace(N=n)
        report = compare_protocols(expected_interference_power(cfg_n), cfg_n, rate_assumed)
        docs.append(
            {**dataclasses.asdict(report), "N": n, "M": cfg_n.M, "rate_assumed": rate_assumed}
        )
        summary.append(
            f"protocol-compare N={n} M={cfg_n.M} sigma_I2={report.sigma_I2:.4g} "
            f"lhs={report.condition_lhs:.4g} rhs={report.condition_rhs:.4g} "
            f"modified_better={report.modified_better}"
        )
    return _per_n(spec, ["N", "M", *_fields(ProtocolReport), "rate_assumed"], docs, summary)


class _Command(NamedTuple):
    runner: Callable[[ExperimentSpec, _Flags], _Result]
    default_format: str
    # Commands whose artifact schema has no N column cannot sweep N.
    sweepable: bool


_TABLE = {
    "convergence": _Command(_cmd_convergence, "csv", False),
    "markov-verify": _Command(_cmd_markov_verify, "csv", False),
    "bounds": _Command(_cmd_bounds, "json", True),
    "outage": _Command(_cmd_outage, "csv", True),
    "interference-probe": _Command(_cmd_interference_probe, "csv", True),
    "protocol-compare": _Command(_cmd_protocol_compare, "json", True),
}
COMMANDS = tuple(_TABLE)


def run(
    spec: ExperimentSpec,
    workers: int = 1,
    mode: str = "idealized",
    channel: np.ndarray | None = None,
) -> list[str]:
    """Execute a spec, write its artifact, return the summary lines."""
    flags = _Flags(workers=workers, mode=mode, channel=channel)
    spec = spec.resolved()
    if channel is not None and spec.command != "markov-verify":
        raise ConfigError(f"--channel is for markov-verify only, not for command {spec.command!r}")
    if mode != "idealized" and spec.command != "outage":
        raise ConfigError(f"--mode {mode!r} is for outage only, not for command {spec.command!r}")
    rows, doc, summary = _TABLE[spec.command].runner(spec, flags)
    _atomic_write(spec.output_path, _json_text(doc) if spec.format == "json" else _csv_text(rows))
    return summary


def _build_parser() -> argparse.ArgumentParser:
    """Options only, each matched by its full name: a flag left out is absent
    from the namespace, and the spec and `run` check every value and hold
    every default. (argparse is imported here, so `run` alone never loads it.)"""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:  # a bad flag is a bad config, not an exit
            raise ConfigError(message)

    default = {k: v.default for k, v in inspect.signature(run).parameters.items()}
    p = _Parser(
        prog="feedbeam",
        allow_abbrev=False,
        description="Simulate and analyze 1-bit-feedback distributed beamforming networks.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--config", required=True, help="path to the experiment JSON file")
    p.add_argument("--command", help=f"override the command ({', '.join(COMMANDS)})")
    p.add_argument("--out", help="override the output path")
    p.add_argument("--format", help=f"override the output format ({', '.join(FORMATS)})")
    p.add_argument(
        "--workers", type=int, help=f"max parallel workers (default {default['workers']})"
    )
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument(
        "--mode",
        help=f"outage weights mode ({', '.join(WEIGHTS_MODES)}; default {default['mode']})",
    )
    p.add_argument(
        "--channel",
        help="comma-separated channel vector for markov-verify (length must equal N)",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    """Exit code of one invocation; a failure prints one JSON line on stderr. Only --help exits."""
    try:
        flags = vars(_build_parser().parse_args(argv))
        spec = load_config(flags.pop("config"))
        spec = dataclasses.replace(
            spec,
            command=flags.pop("command", spec.command),
            config=spec.config.replace(seed=flags.pop("seed", spec.config.seed)),
            output_path=flags.pop("out", spec.output_path),
            format=flags.pop("format", spec.format),
        )
        if "channel" in flags:
            try:
                flags["channel"] = np.array([float(x) for x in flags["channel"].split(",")])
            except ValueError:
                raise ConfigError(f"cannot parse --channel {flags['channel']!r}")
        # What is left are the flags of `run` that were given; it holds the defaults.
        summary = run(spec, **flags)
    except UnknownCommandError as e:
        print(json.dumps({"error": "unknown-command", "message": str(e)}), file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    except UnwritablePathError as e:
        print(json.dumps({"error": "unwritable-path", "message": str(e)}), file=sys.stderr)
        return EXIT_UNWRITABLE
    except FeedbeamError as e:
        print(json.dumps({"error": "invalid-config", "message": str(e)}), file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # pragma: no cover - defensive
        print(json.dumps({"error": "internal", "message": str(e)}), file=sys.stderr)
        return EXIT_INTERNAL
    for line in summary:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
