import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, from_dtype

import feedbeam
from feedbeam import ConfigError, RandomStream, epsilon_max, run_convergence
from feedbeam.cli import (
    _BLOCK_ROWS,
    _TABLE,
    COMMANDS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNKNOWN_COMMAND,
    EXIT_UNWRITABLE,
    ExperimentSpec,
    _atomic_write,
    _csv_text,
    _fmt_cell,
    _table,
    load_config,
    loads_config,
    main,
    run,
    serialize,
)
from feedbeam.config import ESTIMATION_MODES, NetworkConfig


def base_doc(**config_overrides):
    config = dict(
        M=1,
        N=100,
        P=100.0,
        N_o=1.0,
        T_f=50,
        k_o=10.0,
        epsilon_o=0.1,
        delta=0.5,
        seed=42,
        estimation_mode="perfect",
        trials=50,
    )
    config.update(config_overrides)
    return {"config": config}


def write_doc(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config loading


def test_round_trip(tmp_path):
    spec = ExperimentSpec(
        command="bounds",
        config=NetworkConfig(**base_doc()["config"]),
        sweep=(100, 200),
        output_path="out.json",
        format="json",
    )
    path = tmp_path / "spec.json"
    path.write_text(serialize(spec))
    assert load_config(str(path)) == spec


def test_minimal_config_accepted():
    doc = base_doc()
    doc["command"] = "convergence"
    spec = loads_config(json.dumps(doc))
    assert spec.config.N == 100
    assert spec.config.estimation_mode == "perfect"


def test_unknown_keys_rejected():
    doc = base_doc()
    doc["config"]["epsilon"] = 0.1  # typo for epsilon_o
    with pytest.raises(ConfigError, match="epsilon"):
        loads_config(json.dumps(doc))
    doc = base_doc()
    doc["outputs"] = "x.csv"
    with pytest.raises(ConfigError, match="outputs"):
        loads_config(json.dumps(doc))


def test_missing_physics_key_rejected():
    doc = base_doc()
    del doc["config"]["P"]
    with pytest.raises(ConfigError, match="P"):
        loads_config(json.dumps(doc))


def test_optional_keys_have_defaults():
    doc = base_doc()
    del doc["config"]["trials"]
    del doc["config"]["estimation_mode"]
    spec = loads_config(json.dumps(doc))
    assert spec.config.trials == 1
    assert spec.config.estimation_mode == "perfect"


def test_infeasible_epsilon_rejected_for_outage():
    doc = base_doc(epsilon_o=0.5)
    doc["command"] = "outage"
    with pytest.raises(ConfigError) as err:
        loads_config(json.dumps(doc))
    assert "epsilon_o" in str(err.value)
    assert "0.20036" in str(err.value) or "feasibility" in str(err.value)


def test_parse_error_reports_line_and_column():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        loads_config('{"config": {,}}')


def test_unparsable_numbers_and_nesting_are_config_errors():
    doc = json.dumps(base_doc()).replace('"seed": 42', '"seed": ' + "7" * 5000)
    with pytest.raises(ConfigError, match="parse error"):
        loads_config(doc)
    with pytest.raises(ConfigError, match="parse error"):
        loads_config("[" * 100_000)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_VALID_FIELDS = {
    "M": st.integers(1, 2**40),
    "N": st.integers(1, 2**40),
    "T_f": st.integers(1, 10**6),
    "trials": st.integers(1, 2**62),
    "seed": st.integers(-(2**64), 2**64),
    "P": _POSITIVE,
    "N_o": _POSITIVE,
    "k_o": _POSITIVE,
    "delta": _POSITIVE,
    "estimation_mode": st.sampled_from(ESTIMATION_MODES),
}


@st.composite
def valid_specs(draw):
    command = draw(st.one_of(st.none(), st.sampled_from(COMMANDS)))
    # bounds and outage also need a feasible epsilon_o.
    ceiling = epsilon_max() if command in ("bounds", "outage") else 1.0
    config = NetworkConfig(
        epsilon_o=draw(st.floats(0.0, ceiling, exclude_max=True)),
        **{name: draw(values) for name, values in _VALID_FIELDS.items()},
    )
    sweep = None
    if command is None or _TABLE[command].sweepable:
        sweep = draw(st.none() | st.lists(st.integers(1, 10**9), min_size=1, unique=True))
    return ExperimentSpec(
        command=command,
        config=config,
        sweep=None if sweep is None else tuple(sweep),
        output_path=draw(st.none() | st.text()),
        format=draw(st.sampled_from([None, "csv", "json"])),
    )


@settings(max_examples=300, deadline=None)
@given(spec=valid_specs())
def test_serialized_spec_loads_back_equal(spec):
    assert loads_config(serialize(spec)) == spec


_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_OTHER_TYPES = st.one_of(st.booleans(), st.text(), st.none(), st.lists(st.integers(), max_size=2))
_BAD_INT = _OTHER_TYPES | st.floats() | st.integers(max_value=0)
_BAD_POSITIVE = (
    _OTHER_TYPES | _NOT_FINITE | st.floats(max_value=0.0) | st.integers(max_value=0)
    | st.integers(min_value=2**1024)
)
_INVALID_FIELDS = {
    "M": _BAD_INT,
    "N": _BAD_INT,
    "T_f": _BAD_INT,
    "trials": _BAD_INT,
    "seed": _OTHER_TYPES | st.floats(),
    "P": _BAD_POSITIVE,
    "N_o": _BAD_POSITIVE,
    "k_o": _BAD_POSITIVE,
    "delta": _BAD_POSITIVE,
    "epsilon_o": (
        _OTHER_TYPES | _NOT_FINITE | st.floats(min_value=1.0) | st.floats(max_value=-1e-300)
        | st.integers(min_value=1) | st.integers(max_value=-1)
    ),
    "estimation_mode": (_OTHER_TYPES | st.integers()).filter(lambda v: v not in ESTIMATION_MODES),
    # Top-level keys of the experiment document.
    "sweep": (
        st.booleans() | st.text() | st.integers() | st.just([])
        | st.lists(_BAD_INT, min_size=1, max_size=3)
        | st.lists(st.integers(1, 5), min_size=2, max_size=4).filter(lambda s: len(set(s)) < len(s))
    ),
    "format": (_OTHER_TYPES | st.integers()).filter(lambda v: v not in ("csv", "json", None)),
    "output_path": st.booleans() | st.integers() | st.floats() | st.lists(st.text(), max_size=2),
}


@pytest.mark.parametrize("field", sorted(_INVALID_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invalid_field_value_is_a_config_error(field, data):
    doc = base_doc()
    doc["command"] = "bounds"
    value = data.draw(_INVALID_FIELDS[field])
    if field in doc["config"]:
        doc["config"][field] = value
    else:
        doc[field] = value
    with pytest.raises(ConfigError):
        loads_config(json.dumps(doc))


def test_sweep_validation():
    doc = base_doc()
    doc["command"] = "bounds"
    doc["sweep"] = [100, 0]
    with pytest.raises(ConfigError, match="sweep"):
        loads_config(json.dumps(doc))
    doc["sweep"] = [100, 200, 100]
    with pytest.raises(ConfigError, match="distinct"):
        loads_config(json.dumps(doc))
    # A spec built in code is checked when it runs.
    spec = ExperimentSpec(command="interference-probe", config=NetworkConfig(**doc["config"]))
    with pytest.raises(ConfigError, match="distinct"):
        run(dataclasses.replace(spec, sweep=(30, 30)))
    doc["sweep"] = [100, 200]
    assert loads_config(json.dumps(doc)).sweep == (100, 200)
    doc["command"] = "convergence"
    with pytest.raises(ConfigError, match="sweep"):
        loads_config(json.dumps(doc))


def test_spec_built_in_code_equals_spec_from_file():
    doc = base_doc(M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    doc["sweep"] = [100, 200]
    built = ExperimentSpec("bounds", NetworkConfig(**doc["config"]), sweep=[100, 200])
    assert built.sweep == (100, 200)
    assert loads_config(json.dumps(doc)) == built


@pytest.mark.parametrize(
    "spec_changes, flags",
    [
        (dict(format="xml"), {}),
        (dict(output_path=5), {}),
        (dict(sweep=(True, 60)), {}),
        ({}, dict(sigma_source="bogus")),
        ({}, dict(mode="bogus")),
        ({}, dict(workers=True)),
    ],
    ids=["format", "output_path", "sweep", "sigma_source", "mode", "workers"],
)
def test_library_run_checks_spec_and_flags(tmp_path, monkeypatch, spec_changes, flags):
    monkeypatch.chdir(tmp_path)
    config = NetworkConfig(**base_doc(M=2, N=50, epsilon_o=0.05)["config"])
    spec = ExperimentSpec("bounds", config)
    with pytest.raises(ConfigError):
        run(dataclasses.replace(spec, **spec_changes), **flags)
    assert list(tmp_path.iterdir()) == []
    run(spec)
    assert [p.name for p in tmp_path.iterdir()] == ["bounds.json"]


def test_package_exports_each_module_all():
    modules = [getattr(feedbeam, m) for m in ("bounds", "channel", "config", "errors", "markov",
                                             "outage", "protocol", "rng", "training")]
    declared = [(name, m) for m in modules for name in m.__all__]
    assert sorted(feedbeam.__all__) == sorted(name for name, _ in declared)
    assert len(set(feedbeam.__all__)) == len(feedbeam.__all__)
    assert all(getattr(feedbeam, name) is getattr(m, name) for name, m in declared)


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_command_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, base_doc())
    code = main(["--config", path, "--command", "frobnicate"])
    assert code == EXIT_UNKNOWN_COMMAND
    assert json.loads(capsys.readouterr().err)["error"] == "unknown-command"


@pytest.mark.parametrize("command", [["bounds"], {}, 5], ids=["list", "object", "number"])
def test_malformed_command_exit_code(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    doc = base_doc()
    doc["command"] = command
    assert main(["--config", write_doc(tmp_path, doc)]) == EXIT_UNKNOWN_COMMAND
    assert json.loads(capsys.readouterr().err)["error"] == "unknown-command"


def test_invalid_config_exit_code(tmp_path, capsys):
    doc = base_doc(epsilon_o=0.5)
    doc["command"] = "outage"
    path = write_doc(tmp_path, doc)
    assert main(["--config", path]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"


@pytest.mark.parametrize(
    "field, value",
    [
        ("P", "100"),
        pytest.param("P", 10**400, id="P-int-beyond-float"),
        ("N_o", None),
        ("k_o", math.inf),
        ("epsilon_o", math.nan),
        ("delta", -math.inf),
        ("N", True),
        ("M", True),
        ("T_f", 50.0),
        ("seed", False),
        ("trials", True),
    ],
)
def test_mistyped_config_field_exit_code(tmp_path, capsys, field, value):
    doc = base_doc(**{field: value})
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    assert main(["--config", path, "--out", str(tmp_path / "out.json")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert field in err["message"]


@pytest.mark.parametrize("command", ["bounds", "outage"])
@pytest.mark.parametrize("overrides", [dict(delta=1000.0), dict(P=1e-320)], ids=["delta", "P"])
def test_bound_inputs_beyond_float_range_exit_code(tmp_path, capsys, command, overrides):
    doc = base_doc(M=2, epsilon_o=0.05, **overrides)
    doc["command"] = command
    path = write_doc(tmp_path, doc)
    out = tmp_path / "artifact"
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert "k3" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "M, exponent", [(1, 155), (2, 200), (2, 400)], ids=["M1-N1e155", "M2-N1e200", "M2-N1e400"]
)
def test_huge_n_exit_code(tmp_path, capsys, M, exponent):
    doc = base_doc(M=M, N=10**exponent, epsilon_o=0.05)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    out = tmp_path / "bounds.json"
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert "N is too large" in err["message"]
    assert not out.exists()


def test_single_group_bounds_do_not_depend_on_delta(tmp_path):
    reports = []
    for delta in (0.5, 1000.0):
        doc = base_doc(M=1, epsilon_o=0.05, delta=delta)
        doc["command"] = "bounds"
        out = tmp_path / f"bounds-{delta}.json"
        assert main(["--config", write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_OK
        reports.append(json.loads(out.read_text()))
    for key in ("rate", "k1", "k2", "k3", "term1", "term2", "term3", "bound_finite",
                "bound_asymptotic"):
        assert reports[0][key] == reports[1][key], key


def test_unwritable_path_exit_code(tmp_path, capsys):
    doc = base_doc(N=50, M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "no-such-dir" / "x.json")
    assert main(["--config", path, "--out", out]) == EXIT_UNWRITABLE
    assert json.loads(capsys.readouterr().err)["error"] == "unwritable-path"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exit_code(tmp_path, capsys, workers):
    doc = base_doc(N=50, M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    out = tmp_path / "bounds.json"
    assert main(["--config", path, "--out", str(out), "--workers", workers]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert "workers" in err["message"]
    assert not out.exists()


def last_line_of_python(code):
    """Last line printed by ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(feedbeam.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_bounds_run_does_not_import_scipy_optimize(tmp_path):
    doc = base_doc(N=50, M=1, epsilon_o=0.05)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "bounds.json")
    code = (
        "import sys\n"
        "import feedbeam.cli\n"
        f"code = feedbeam.cli.main(['--config', {path!r}, '--out', {out!r}])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n"
    )
    assert last_line_of_python(code) == f"{EXIT_OK} False"


def test_oracle_does_not_import_scipy_linalg(tmp_path):
    doc = base_doc(N=11, trials=20)
    doc["command"] = "markov-verify"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "markov.csv")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import feedbeam.cli\n"
        "from feedbeam.markov import absorption_time_stats, build_markov\n"
        f"code = feedbeam.cli.main(['--config', {path!r}, '--out', {out!r}])\n"
        "mean, _ = absorption_time_stats(build_markov(np.linspace(-1.0, 2.0, 11)))\n"
        "print(code, mean > 0, 'scipy.linalg' in sys.modules)\n"
    )
    assert last_line_of_python(code) == f"{EXIT_OK} True False"


# One tiny run of every command: bounds at M = 1 and 2, outage in both weights modes,
# markov-verify on the dense (N <= 10) and the matrix-free (N = 11) chain.
_SCIPY_FREE_RUNS = [
    ("convergence", dict(M=2, N=10, trials=4, k_o=2.0), []),
    ("markov-verify", dict(N=6, trials=200), []),
    ("markov-verify", dict(N=11, trials=20), []),
    ("bounds", dict(N=50, M=1, epsilon_o=0.05), []),
    ("bounds", dict(N=50, M=2, epsilon_o=0.05), []),
    ("outage", dict(M=2, N=50, epsilon_o=0.05, trials=2000), ["--mode", "idealized"]),
    ("outage", dict(M=2, N=50, epsilon_o=0.05, trials=20, k_o=2.0), ["--mode", "trained"]),
    ("interference-probe", dict(N=20, trials=20, k_o=2.0), []),
    ("protocol-compare", dict(M=3, N=16, P=10.0, trials=20, k_o=2.0), []),
]


def test_no_command_imports_scipy(tmp_path):
    assert {command for command, _, _ in _SCIPY_FREE_RUNS} == set(COMMANDS)
    argvs = []
    for i, (command, config, flags) in enumerate(_SCIPY_FREE_RUNS):
        doc = base_doc(**config)
        doc["command"] = command
        path = write_doc(tmp_path, doc, name=f"spec{i}.json")
        argvs.append(["--config", path, "--out", str(tmp_path / f"artifact{i}"), *flags])
    # numpy 2 loads numpy.random lazily; the package loads it at import, not in a first draw.
    # The hitting times are library-only: no command computes them.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import feedbeam.cli\n"
        "from feedbeam.markov import absorption_time_stats, build_markov\n"
        "eager = 'numpy.random' in sys.modules\n"
        f"codes = [feedbeam.cli.main(argv) for argv in {argvs!r}]\n"
        "mean, _ = absorption_time_stats(build_markov(np.linspace(-1.0, 2.0, 11)))\n"
        "print(eager, codes, mean > 0, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    assert last_line_of_python(code) == f"True {[EXIT_OK] * len(argvs)} True []"


# ---------------------------------------------------------------------------
# commands end to end


def test_bounds_command_values(tmp_path):
    doc = base_doc(N=200, M=2, epsilon_o=0.05, delta=0.5)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "bounds.json")
    assert main(["--config", path, "--out", out]) == EXIT_OK
    report = json.loads(open(out).read())
    assert report["c_1"] == pytest.approx(0.1197, abs=2e-4)
    assert report["term3"] == pytest.approx(1.70e-3, abs=2e-5)
    assert report["N"] == 200


def test_bounds_sweep_csv(tmp_path):
    doc = base_doc(N=200, M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    doc["sweep"] = [100, 200, 400]
    doc["format"] = "csv"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "bounds.csv")
    assert main(["--config", path, "--out", out]) == EXIT_OK
    lines = open(out).read().splitlines()
    assert lines[0].split(",")[:4] == ["N", "M", "epsilon_o", "delta"]
    assert len(lines) == 4


def test_markov_verify_with_explicit_channel(tmp_path):
    doc = base_doc(N=2, trials=5000)
    doc["command"] = "markov-verify"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "markov.csv")
    assert main(["--config", path, "--out", out, "--channel", "1,2"]) == EXIT_OK
    rows = [line.split(",") for line in open(out).read().splitlines()]
    assert rows[0] == ["state_code", "gain", "p_to_absorbing"]
    table = {int(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
    assert table[0b00] == (-3.0, 0.25)  # all-reverse state jumps in one step
    assert table[0b11] == (3.0, 1.0)    # absorbing state


def test_markov_verify_json_simulation_agrees(tmp_path):
    doc = base_doc(N=3, trials=20_000)
    doc["command"] = "markov-verify"
    doc["format"] = "json"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "markov.json")
    assert main(["--config", path, "--out", out]) == EXIT_OK
    report = json.loads(open(out).read())
    assert len(report["states"]) == 8
    for entry in report["expected_gain"]:
        assert abs(entry["simulated"] - entry["exact"]) <= 3 * entry["stderr"] + 1e-9


def test_convergence_command_matches_library_and_reaches_ceiling(tmp_path):
    doc = base_doc(N=100, M=1, trials=50, k_o=20.0)
    doc["command"] = "convergence"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "conv.csv")
    assert main(["--config", path, "--out", out]) == EXIT_OK
    lines = open(out).read().splitlines()
    assert lines[0] == "trial,group,t,gain,aligned_count,accepted"
    cfg = NetworkConfig(**base_doc(N=100, M=1, trials=50, k_o=20.0)["config"])
    res = run_convergence(cfg, RandomStream(cfg.seed, "convergence"))
    assert len(lines) - 1 == cfg.trials * cfg.M * res.frames.size
    # mean gain at t = 10N clears 90% of the mean attainable amplitude
    gains_10n = np.array(
        [float(l.split(",")[3]) for l in lines[1:] if int(l.split(",")[2]) == 10 * cfg.N]
    )
    assert gains_10n.mean() >= 0.9 * res.abs_sum.mean()
    assert gains_10n.mean() == pytest.approx(res.gain[:, 0, 10 * cfg.N].mean(), rel=1e-12)


def test_outage_command_schema_and_modes(tmp_path):
    doc = base_doc(N=50, M=2, epsilon_o=0.05, trials=2000)
    doc["command"] = "outage"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "outage.csv")
    assert main(["--config", path, "--out", out]) == EXIT_OK
    lines = open(out).read().splitlines()
    assert lines[0] == (
        "N,M,epsilon_o,delta,rate,trials,outage_empirical,stderr,"
        "bound_finite,bound_asymptotic,mode,ci_low,ci_high"
    )
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["mode"] == "idealized"
    assert float(row["ci_low"]) <= float(row["outage_empirical"]) <= float(row["ci_high"])
    assert float(row["ci_high"]) > 0
    out2 = str(tmp_path / "outage-trained.csv")
    doc2 = base_doc(N=50, M=2, epsilon_o=0.05, trials=500, k_o=5.0)
    doc2["command"] = "outage"
    path2 = write_doc(tmp_path, doc2, "spec2.json")
    assert main(["--config", path2, "--out", out2, "--mode", "trained"]) == EXIT_OK
    assert open(out2).read().splitlines()[1].split(",")[10] == "trained"


def test_outage_sweep_checks_every_point_before_monte_carlo(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(feedbeam.cli, "estimate_outage", lambda *a, **k: calls.append(a))
    doc = base_doc(N=50, M=2, epsilon_o=0.05, trials=2000)
    doc["command"] = "outage"
    doc["sweep"] = [50, 80, 24]
    path = write_doc(tmp_path, doc)
    out = tmp_path / "outage.csv"
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"
    assert calls == []
    assert not out.exists()


def test_interference_probe_sweep(tmp_path):
    doc = base_doc(N=20, trials=300, k_o=4.0)
    doc["command"] = "interference-probe"
    doc["sweep"] = [20, 40]
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "probe.csv")
    assert main(["--config", path, "--out", out]) == EXIT_OK
    lines = open(out).read().splitlines()
    assert lines[0] == "N,trials,mean_sq,control_sq,sample_mean,slope"
    assert len(lines) == 3


def test_protocol_compare_json(tmp_path):
    doc = base_doc(N=32, M=4, P=10.0, N_o=1.0, trials=128, k_o=4.0)
    doc["command"] = "protocol-compare"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "protocol.json")
    assert main(["--config", path, "--out", out]) == EXIT_OK
    report = json.loads(open(out).read())
    assert report["sigma_source"] == "monte-carlo"
    assert report["modified_better"] is False
    assert len(report["sigma_per_link"]) == 4
    out2 = str(tmp_path / "protocol2.json")
    assert main(["--config", path, "--out", out2, "--sigma-source", "analytic"]) == EXIT_OK
    analytic = json.loads(open(out2).read())
    assert analytic["sigma_I2"] == pytest.approx(10.0 * 4 / 2)  # P * M / 2


# Every Monte Carlo command, each with more than one chunk so that two
# workers really split the work.
_REPRODUCIBLE = {
    "convergence": (dict(M=2, N=10, trials=300, k_o=4.0), []),
    "outage-idealized": (dict(M=2, N=50, epsilon_o=0.05, trials=20_000), []),
    "outage-trained": (
        dict(M=2, N=50, epsilon_o=0.05, trials=300, k_o=2.0),
        ["--mode", "trained"],
    ),
    "interference-probe": (dict(N=20, trials=600, k_o=4.0), []),
    "protocol-compare": (dict(M=3, N=16, P=10.0, trials=300, k_o=4.0), []),
    "markov-verify": (dict(N=6, trials=20_000), ["--format", "json"]),
}


@pytest.mark.parametrize("name", sorted(_REPRODUCIBLE))
def test_artifacts_are_byte_identical_across_reruns_and_workers(tmp_path, name):
    config, flags = _REPRODUCIBLE[name]
    doc = base_doc(**config)
    doc["command"] = name.removesuffix("-idealized").removesuffix("-trained")
    path = write_doc(tmp_path, doc)
    outs = [str(tmp_path / f"artifact{i}") for i in range(3)]
    assert main(["--config", path, "--out", outs[0], *flags]) == EXIT_OK
    assert main(["--config", path, "--out", outs[1], *flags]) == EXIT_OK
    assert main(["--config", path, "--out", outs[2], "--workers", "2", *flags]) == EXIT_OK
    blobs = [open(o, "rb").read() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]


def test_seed_override_changes_artifact(tmp_path):
    doc = base_doc(N=20, trials=200, k_o=4.0)
    doc["command"] = "interference-probe"
    path = write_doc(tmp_path, doc)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["--config", path, "--out", out1]) == EXIT_OK
    assert main(["--config", path, "--out", out2, "--seed", "777"]) == EXIT_OK
    assert open(out1).read() != open(out2).read()


def test_command_flag_with_commandless_file(tmp_path):
    doc = base_doc(N=50, M=2, epsilon_o=0.05)
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "bounds.json")
    assert main(["--config", path, "--command", "bounds", "--out", out]) == EXIT_OK
    assert json.loads(open(out).read())["N"] == 50


def test_channel_flag_validation(tmp_path, capsys):
    doc = base_doc(N=3, trials=100)
    doc["command"] = "markov-verify"
    path = write_doc(tmp_path, doc)
    assert main(["--config", path, "--channel", "1,2"]) == EXIT_CONFIG
    assert main(["--config", path, "--channel", "1,x,3"]) == EXIT_CONFIG
    capsys.readouterr()
    for channel in ("nan,1,2", "inf,1,2", "1e308,1e308,1e308"):
        out = tmp_path / "markov.csv"
        assert main(["--config", path, "--out", str(out), "--channel", channel]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"
        assert not out.exists()


def test_csv_floats_round_trip_losslessly(tmp_path):
    doc = base_doc(N=50, M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    doc["format"] = "csv"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "bounds.csv")
    assert main(["--config", path, "--out", out]) == EXIT_OK
    header, row = [l.split(",") for l in open(out).read().splitlines()]
    from feedbeam import outage_bound

    report = outage_bound(50, loads_config(json.dumps(doc)).config)
    for name, cell in zip(header, row):
        assert float(cell) == getattr(report, name if name != "mode" else "N")


# ---------------------------------------------------------------------------
# the CSV writer and the artifact file


def per_cell_csv(columns, rows):
    """The writer's reference: every cell formatted on its own by `_fmt_cell`."""
    lines = [",".join(columns)] + [",".join(_fmt_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 2.0**53 + 2, 1e17]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
# Columns given as sequences of cells, mixed types included.
_CELLS = {
    "bool": st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    "int": st.one_of(
        st.integers(),
        st.integers(2**63 - 2, 2**65),
        st.integers(-(2**31), 2**31 - 1).map(np.int32),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
    ),
    "float": st.one_of(_FLOATS, _FLOATS.map(np.float64)),
    "float-or-none": st.one_of(_FLOATS, _FLOATS.map(np.float64), st.none()),
    "str": st.text(),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())
# Columns given as arrays, which keep their dtype.
_DTYPES = ["bool", "int8", "int32", "int64", "uint64", "float32", "float64"]
# Array columns whose cells repeat: every cell is one of a pool of at most three values.
_POOLED = [f"{dtype} pooled" for dtype in _DTYPES]


def column(kind, n_rows):
    """A strategy for one column of ``n_rows`` cells of the given kind."""
    if kind in _CELLS:
        return st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows)
    if kind in _POOLED:
        dtype = np.dtype(kind.split()[0])
        elements = from_dtype(dtype)
        if dtype.kind == "f":  # the values that must stay apart (-0.0, 0.0) or never compare equal
            elements = st.sampled_from([0.0, -0.0, math.nan, math.inf]) | elements
        return st.lists(elements, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)
        ).map(lambda cells: np.array(cells, dtype=dtype))
    return arrays(kind, n_rows)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_csv_writer_matches_per_cell_formatting(data):
    n_rows = data.draw(st.integers(0, 12))
    kinds = data.draw(
        st.lists(st.sampled_from(sorted(_CELLS) + _DTYPES + _POOLED), min_size=1, max_size=6)
    )
    values = [data.draw(column(kind, n_rows)) for kind in kinds]
    columns = [f"c{i}" for i in range(len(kinds))]
    rows = _table(columns, values)
    assert len(rows) == n_rows
    assert _csv_text(columns, rows) == per_cell_csv(columns, list(zip(*values)))


def test_csv_writer_blocks_and_array_columns():
    n = 2 * _BLOCK_ROWS + 3
    gen = np.random.default_rng(5)
    gain = gen.standard_normal(n) * 1e3
    gain[[0, _BLOCK_ROWS - 1, _BLOCK_ROWS, n - 1]] = [-0.0, math.nan, -math.inf, 5e-324]
    values = [
        np.arange(n, dtype=np.int32),
        gain,
        gen.random(n) < 0.5,
        np.arange(n, dtype=np.uint8),
        [None if i % 7 == 0 else float(g) for i, g in enumerate(gain)],
        ["idealized"] * n,
    ]
    columns = ["trial", "gain", "accepted", "code", "bound_finite", "mode"]
    rows = _table(columns, values)
    text = _csv_text(columns, rows)
    assert text == per_cell_csv(columns, list(zip(*values)))
    assert text.count("\n") == n + 1
    assert ",None," in text and ",-0," in text


def test_csv_writer_repeated_values_across_blocks():
    n = 2 * _BLOCK_ROWS + 5
    gen = np.random.default_rng(9)
    pool = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.5, 0.1])
    gain = pool[gen.integers(0, pool.size, n)]
    # Long runs of one value, the second across the first block edge.
    gain[100:3000] = 0.1
    gain[_BLOCK_ROWS - 700 : _BLOCK_ROWS + 900] = -0.0
    gain[_BLOCK_ROWS + 900 : _BLOCK_ROWS + 950] = 0.0
    gain[-5:] = [math.nan, -0.0, 0.0, 5e-324, math.inf]
    values = [
        gen.integers(0, 3, n).astype(np.int64),
        gain,
        gen.random(n) < 0.02,
        np.repeat(np.arange(3, dtype=np.uint16), n // 3 + 1)[:n],
        gain.astype(np.float32),
    ]
    for block in range(3):
        zeros = gain[block * _BLOCK_ROWS : (block + 1) * _BLOCK_ROWS]
        zeros = zeros[zeros == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    columns = ["group", "gain", "accepted", "code", "gain32"]
    text = _csv_text(columns, _table(columns, values))
    assert text == per_cell_csv(columns, list(zip(*values)))
    for cell in ("-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324"):
        assert f",{cell}," in text, cell


def test_convergence_artifacts_match_row_by_row_reference(tmp_path):
    config = NetworkConfig(**base_doc(M=2, N=12, trials=7, k_o=3.0)["config"])
    res = run_convergence(config, RandomStream(config.seed, "convergence"))
    assert np.array_equal(res.frames, np.arange(config.block_frames))  # decimation 1
    columns = ("trial", "group", "t", "gain", "aligned_count", "accepted")
    rows = [
        (
            trial,
            group,
            int(t),
            float(res.gain[trial, group, k]),
            int(res.aligned_count[trial, group, k]),
            bool(res.accepted[trial, group, k]),
        )
        for trial in range(config.trials)
        for group in range(config.M)
        for k, t in enumerate(res.frames)
    ]
    csv_lines = [",".join(columns)] + [
        f"{trial},{group},{t},{format(gain, '.17g')},{count},{int(acc)}"
        for trial, group, t, gain, count, acc in rows
    ]
    json_doc = [dict(zip(columns, row)) for row in rows]
    expected = {
        "csv": "\n".join(csv_lines) + "\n",
        "json": json.dumps(json_doc, indent=2, sort_keys=True) + "\n",
    }
    for fmt, text in expected.items():
        out = tmp_path / f"conv.{fmt}"
        spec = ExperimentSpec("convergence", config, output_path=str(out), format=fmt)
        run(spec)
        assert out.read_text() == text


def test_artifact_mode_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        new_file = tmp_path / "new.json"
        _atomic_write(str(new_file), "{}\n")
        assert new_file.stat().st_mode & 0o777 == 0o644
        overwritten = tmp_path / "old.json"
        overwritten.write_text("stale")
        overwritten.chmod(0o600)
        _atomic_write(str(overwritten), "{}\n")
        assert overwritten.stat().st_mode & 0o777 == 0o644
        assert overwritten.read_text() == "{}\n"
        os.umask(0o077)
        _atomic_write(str(new_file), "[]\n")
        assert new_file.stat().st_mode & 0o777 == 0o600
    finally:
        os.umask(old)
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".feedbeam-")]
