"""Command-line front end: config loading, orchestration, serialization.

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

Unknown keys are rejected. ``--command``, ``--out``, ``--format`` and
``--seed`` override the file. A spec checks its values when it is built, so
one built in code gets the same checks as a spec file; the flags of ``run``
check theirs the same way. Results are written atomically (temp file +
rename, mode 0o666 less the umask) and reruns with the same spec produce
byte-identical artifacts at any worker count.

Every CSV artifact goes through ``_csv_text``: a runner hands it a record
array (``_table``), the writer picks one conversion per column from its
dtype (``%d`` for bools and integers, ``%.17g`` for floats, ``_fmt_cell``
for object columns). Within each block of rows it formats each distinct
value of a numeric column once and gathers the cells, so a trace whose gain
changes only at accepted frames formats few values. Floats are told apart
by their bits, so ``-0.0`` and ``0.0`` keep their own cells.
The ``outage`` CSV columns are ``N, M, epsilon_o, delta, rate, trials,
outage_empirical, stderr, bound_finite, bound_asymptotic, mode, ci_low,
ci_high``, the last two the Clopper-Pearson 95 % interval of the outage
probability.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .bounds import epsilon_max, outage_bound
from .config import NetworkConfig
from .errors import ConfigError, FeedbeamError
from .markov import build_markov, gain_moments_exact, one_step_absorb_probability
from .outage import WEIGHTS_MODES, estimate_outage, interference_scaling_probe
from .protocol import compare_protocols, estimate_interference_power
from .rng import RandomStream
from .training import ensemble_gain_stats, run_convergence

__all__ = [
    "COMMANDS", "FORMATS", "SIGMA_SOURCES", "ExperimentSpec",
    "load_config", "loads_config", "serialize", "run", "main",
]

FORMATS = ("csv", "json")
# Where protocol-compare takes sigma_I^2 from: trained networks, or i * P for link i.
SIGMA_SOURCES = ("monte-carlo", "analytic")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN_COMMAND = 3
EXIT_UNWRITABLE = 4


class UnknownCommandError(FeedbeamError):
    pass


class UnwritablePathError(FeedbeamError):
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
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
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


def loads_config(text: str) -> ExperimentSpec:
    """Parse an experiment document from a JSON string; the spec checks its values."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:  # an over-long integer, too deep a nesting
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
    return loads_config(text)


def serialize(spec: ExperimentSpec) -> str:
    """JSON text such that loads_config(serialize(spec)) == spec."""
    doc: dict[str, Any] = {"command": spec.command, "config": spec.config.to_dict()}
    if spec.sweep is not None:
        doc["sweep"] = list(spec.sweep)
    if spec.output_path is not None:
        doc["output_path"] = spec.output_path
    if spec.format is not None:
        doc["format"] = spec.format
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt_cell(x: Any) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


# The `%` conversion of each numeric numpy dtype kind that writes a cell as
# `_fmt_cell` does: "%.17g" % x == format(x, ".17g") for every float, and
# "%d" % True == "1". Columns of any other kind go through `_fmt_cell`.
_CONVERSION = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}
_BLOCK_ROWS = 8192


def _table(columns: Sequence[str], values: Sequence[Any]) -> np.recarray:
    """Record array with one column per entry of ``values``.

    An array keeps its dtype; any other sequence of cells is kept as
    objects, so its cells are written by `_fmt_cell` as they are.
    """
    arrays = [
        v if isinstance(v, np.ndarray) else np.fromiter(v, dtype=object, count=len(v))
        for v in values
    ]
    return np.rec.fromarrays(arrays, names=list(columns))


def _distinct_cells(col: np.ndarray, conversion: str) -> list[str]:
    """Cells of the numeric column ``col``, each distinct value formatted once.

    Floats are keyed by their bit pattern, so -0.0 and 0.0 stay apart.
    """
    keys = col.view(f"u{col.dtype.itemsize}") if col.dtype.kind == "f" else col
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    cells = np.array([conversion % x for x in col[first].tolist()], dtype=object)
    return cells[inverse].tolist()


def _csv_text(columns: Sequence[str], rows: np.recarray) -> str:
    """CSV text of the ``columns`` of the record array ``rows``.

    Each column's conversion is picked once from its dtype. Within each
    block of rows, a numeric column formats each of its distinct values once
    and gathers the cells; an object column formats every cell.
    """
    fields = []
    for name in columns:
        col = rows[name]
        conversion = _CONVERSION.get(col.dtype.kind)
        if conversion is None:
            col = np.fromiter(map(_fmt_cell, col.tolist()), dtype=object, count=len(col))
        fields.append((col, conversion))
    parts = [",".join(columns)]
    for lo in range(0, len(rows), _BLOCK_ROWS):
        cells = [
            col[lo : lo + _BLOCK_ROWS].tolist() if conversion is None
            else _distinct_cells(col[lo : lo + _BLOCK_ROWS], conversion)
            for col, conversion in fields
        ]
        parts.append("\n".join(map(",".join, zip(*cells))))
    return "\n".join(parts) + "\n"


def _records(rows: np.recarray) -> list[dict]:
    """One dict per row of ``rows``, keyed by column name."""
    names = rows.dtype.names
    return [dict(zip(names, row)) for row in rows.tolist()]


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    return obj


def _json_text(doc: Any) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _records_text(spec: ExperimentSpec, columns: Sequence[str], docs: list[dict]) -> str:
    """Text of one record per N: JSON of all fields (a list only when N is
    swept) or CSV of ``columns``.
    """
    if spec.format == "json":
        return _json_text(docs[0] if spec.sweep is None else docs)
    return _csv_text(columns, _table(columns, [[d[c] for d in docs] for c in columns]))


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename.

    The artifact gets the mode a plain ``open`` would give it, 0o666 less
    the umask, not the 0o600 of the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".feedbeam-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                os.fchmod(f.fileno(), 0o666 & ~umask)
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as e:
        raise UnwritablePathError(f"cannot write output file {path!r}: {e}")


# ---------------------------------------------------------------------------
# command runners: each returns (artifact text, summary lines)


@dataclass(frozen=True)
class _Flags:
    """Flags beyond the spec, checked when built; each runner reads the ones it needs."""

    workers: int
    mode: str
    sigma_source: str
    channel: np.ndarray | None

    def __post_init__(self) -> None:
        if isinstance(self.workers, bool) or not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigError(f"workers must be an integer >= 1, got {self.workers!r}")
        if self.mode not in WEIGHTS_MODES:
            raise ConfigError(f"mode must be one of {WEIGHTS_MODES}, got {self.mode!r}")
        if self.sigma_source not in SIGMA_SOURCES:
            raise ConfigError(
                f"sigma_source must be one of {SIGMA_SOURCES}, got {self.sigma_source!r}"
            )


def _n_values(spec: ExperimentSpec) -> list[int]:
    return list(spec.sweep) if spec.sweep else [spec.config.N]


def _cmd_convergence(spec: ExperimentSpec, flags: _Flags) -> tuple[str, list[str]]:
    cfg = spec.config
    res = run_convergence(cfg, RandomStream(cfg.seed, "convergence"), workers=flags.workers)
    ratio = res.gain[:, :, -1].mean() / res.abs_sum.mean()
    summary = [
        f"convergence N={cfg.N} M={cfg.M} trials={cfg.trials} "
        f"frames={res.frames[-1] + 1} final_gain_ratio={ratio:.4f}"
    ]
    columns = ("trial", "group", "t", "gain", "aligned_count", "accepted")
    k = res.frames.size
    rows = _table(
        columns,
        [
            np.repeat(np.arange(cfg.trials), cfg.M * k),
            np.tile(np.repeat(np.arange(cfg.M), k), cfg.trials),
            np.tile(res.frames, cfg.trials * cfg.M),
            res.gain.reshape(-1),
            res.aligned_count.reshape(-1),
            res.accepted.reshape(-1).astype(bool),
        ],
    )
    if spec.format == "json":
        return _json_text(_records(rows)), summary
    return _csv_text(columns, rows), summary


def _cmd_markov_verify(spec: ExperimentSpec, flags: _Flags) -> tuple[str, list[str]]:
    cfg = spec.config
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
    sim_mean, _ = ensemble_gain_stats(
        h, t_checks, cfg.trials, cfg, RandomStream(cfg.seed, "markov/sim"), workers=flags.workers
    )
    worst = float(np.max(np.abs(sim_mean - exact) / np.maximum(errs, 1e-300)))
    summary = [
        f"markov-verify N={cfg.N} states={model.n_states} "
        f"absorbing_code={model.absorbing_index} max_dev={worst:.2f} stderr units "
        f"over t={t_checks} ({cfg.trials} trajectories)"
    ]
    columns = ("state_code", "gain", "p_to_absorbing")
    rows = _table(columns, [np.arange(model.n_states), model.gains, p_abs])
    if spec.format == "json":
        doc = {
            "N": cfg.N,
            "h": h,
            "absorbing_code": model.absorbing_index,
            "start_code": model.start_index,
            "states": _records(rows),
            "expected_gain": [
                {"t": t, "exact": exact[k], "simulated": sim_mean[k], "stderr": errs[k]}
                for k, t in enumerate(t_checks)
            ],
        }
        return _json_text(doc), summary
    return _csv_text(columns, rows), summary


def _cmd_bounds(spec: ExperimentSpec, flags: _Flags) -> tuple[str, list[str]]:
    reports = [outage_bound(n, spec.config) for n in _n_values(spec)]
    summary = [
        f"bounds N={r.N} M={r.M} rate={r.rate:.4f} bound_finite={r.bound_finite:.4g} "
        f"bound_asymptotic={r.bound_asymptotic:.4g}"
        for r in reports
    ]
    columns = (
        "N", "M", "epsilon_o", "delta", "k1", "k2", "k3", "c_1", "rate",
        "term1", "term2", "term3", "bound_finite", "bound_asymptotic",
    )
    return _records_text(spec, columns, [r.to_dict() for r in reports]), summary


def _cmd_outage(spec: ExperimentSpec, flags: _Flags) -> tuple[str, list[str]]:
    cfg = spec.config
    points = [cfg.replace(N=n) for n in _n_values(spec)]
    # Every point's bound, and so its feasibility, is settled before any Monte Carlo runs.
    rates = [outage_bound(p.N, p).rate for p in points]
    results = [
        estimate_outage(
            p, rate, flags.mode, RandomStream(cfg.seed, f"outage/N/{p.N}"), workers=flags.workers
        )
        for p, rate in zip(points, rates)
    ]
    summary = [
        f"outage N={r.N} rate={r.rate:.4f} empirical={r.outage_empirical:.6f} "
        f"(+-{r.stderr:.6f}, 95% CI [{r.ci_low:.6f}, {r.ci_high:.6f}]) "
        f"bound_finite={r.bound_finite:.4g} mode={r.weights_mode}"
        for r in results
    ]
    columns = (
        "N", "M", "epsilon_o", "delta", "rate", "trials", "outage_empirical",
        "stderr", "bound_finite", "bound_asymptotic", "mode", "ci_low", "ci_high",
    )
    return _records_text(spec, columns, [r.to_dict() for r in results]), summary


def _cmd_interference_probe(spec: ExperimentSpec, flags: _Flags) -> tuple[str, list[str]]:
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
    if spec.format == "json":
        doc = {
            "rows": [dataclasses.asdict(r) for r in probe.rows],
            "slope": probe.slope,
        }
        return _json_text(doc), summary
    columns = ("N", "trials", "mean_sq", "control_sq", "sample_mean", "slope")
    rows = [(r.N, r.trials, r.mean_sq, r.control_sq, r.sample_mean, probe.slope) for r in probe.rows]
    return _csv_text(columns, _table(columns, list(zip(*rows)))), summary


def _cmd_protocol_compare(spec: ExperimentSpec, flags: _Flags) -> tuple[str, list[str]]:
    cfg = spec.config
    if cfg.M < 2:
        raise ConfigError("protocol-compare requires M >= 2")
    rate_assumed = 1.0  # the ordering of the two protocols does not depend on R
    docs, summary = [], []
    for n in _n_values(spec):
        cfg_n = cfg.replace(N=n)
        if flags.sigma_source == "monte-carlo":
            est = estimate_interference_power(
                cfg_n, RandomStream(cfg.seed, f"protocol/N/{n}"), workers=flags.workers
            )
            per_link = est.per_link
            sigma = est.mean_active
        else:
            per_link = np.array([i * cfg_n.P for i in range(cfg_n.M)])
            sigma = float(per_link[1:].mean())
        report = compare_protocols(sigma, cfg_n, rate_assumed)
        docs.append(
            {
                **report.to_dict(),
                "N": n,
                "M": cfg_n.M,
                "sigma_source": flags.sigma_source,
                "sigma_per_link": per_link,
                "rate_assumed": rate_assumed,
            }
        )
        summary.append(
            f"protocol-compare N={n} M={cfg_n.M} sigma_I2={report.sigma_I2:.4f} "
            f"lhs={report.condition_lhs:.4f} rhs={report.condition_rhs:.4f} "
            f"modified_better={report.modified_better}"
        )
    columns = (
        "N", "M", "sigma_I2", "frame_ratio", "condition_lhs", "condition_rhs",
        "modified_better", "bits_modified", "bits_original", "sigma_source", "rate_assumed",
    )
    return _records_text(spec, columns, docs), summary


class _Command(NamedTuple):
    runner: Callable[[ExperimentSpec, _Flags], tuple[str, list[str]]]
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
    sigma_source: str = "monte-carlo",
    channel: np.ndarray | None = None,
) -> list[str]:
    """Execute a spec, write its artifact, return the summary lines."""
    flags = _Flags(workers=workers, mode=mode, sigma_source=sigma_source, channel=channel)
    spec = spec.resolved()
    text, summary = _TABLE[spec.command].runner(spec, flags)
    _atomic_write(spec.output_path, text)
    return summary


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="feedbeam",
        description="Simulate and analyze 1-bit-feedback distributed beamforming networks.",
    )
    p.add_argument("--config", required=True, help="path to the experiment JSON file")
    p.add_argument("--command", help=f"override the command ({', '.join(COMMANDS)})")
    p.add_argument("--out", help="override the output path")
    p.add_argument("--format", choices=FORMATS, help="override the output format")
    p.add_argument("--workers", type=int, default=1, help="max parallel workers (default 1)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument(
        "--mode",
        choices=WEIGHTS_MODES,
        default="idealized",
        help="weights mode for the outage command (default idealized)",
    )
    p.add_argument(
        "--sigma-source",
        choices=SIGMA_SOURCES,
        default="monte-carlo",
        help="sigma_I^2 source for protocol-compare (default monte-carlo)",
    )
    p.add_argument(
        "--channel",
        help="comma-separated channel vector for markov-verify (length must equal N)",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = load_config(args.config)
        if args.command is not None:
            spec = dataclasses.replace(spec, command=args.command)
        if args.seed is not None:
            spec = dataclasses.replace(spec, config=spec.config.replace(seed=args.seed))
        if args.out is not None:
            spec = dataclasses.replace(spec, output_path=args.out)
        if args.format is not None:
            spec = dataclasses.replace(spec, format=args.format)
        channel = None
        if args.channel is not None:
            try:
                channel = np.array([float(x) for x in args.channel.split(",")])
            except ValueError:
                raise ConfigError(f"cannot parse --channel {args.channel!r}")
        summary = run(
            spec,
            workers=args.workers,
            mode=args.mode,
            sigma_source=args.sigma_source,
            channel=channel,
        )
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
