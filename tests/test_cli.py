import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, from_dtype

import feedbeam
import feedbeam.artifact as artifact
import feedbeam.cli as cli
from feedbeam import (
    CapacityError,
    ConfigError,
    FeedbeamError,
    RandomStream,
    epsilon_max,
    run_convergence,
)
from feedbeam.artifact import (
    _BLOCK_ROWS,
    _CELL,
    FORMATS,
    _atomic_write,
    _csv_text,
    _json_text,
    _Table,
    _table,
)
from feedbeam.cli import (
    _TABLE,
    COMMANDS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNKNOWN_COMMAND,
    EXIT_UNWRITABLE,
    ExperimentSpec,
    _Flags,
    load_config,
    loads_config,
    main,
    run,
    serialize,
)
from feedbeam.config import ESTIMATION_MODES, NetworkConfig
from feedbeam.outage import WEIGHTS_MODES
from feedbeam.util import TRAJ_CHUNK, TRIAL_CHUNK


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


def test_repeated_keys_are_rejected():
    top = '{"command": "bounds", "command": "outage", "config": {"M": 1}}'
    with pytest.raises(ConfigError, match="duplicate key 'command'"):
        loads_config(top)
    inner = json.dumps(base_doc(N=60)).replace('"N": 60', '"N": 60, "N": 70')
    with pytest.raises(ConfigError, match="duplicate key 'N'"):
        loads_config(inner)


def test_config_file_that_is_not_utf8_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = base_doc()
    doc["command"] = "bounds"
    doc["output_path"] = "out-PLACEHOLDER.json"
    path = tmp_path / "spec.json"
    path.write_bytes(json.dumps(doc).encode().replace(b"PLACEHOLDER", b"\xff"))
    assert main(["--config", str(path)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config" and "UTF-8" in err["message"]
    assert os.listdir(tmp_path) == ["spec.json"]


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_VALID_FIELDS = {
    "M": st.integers(1, 2**40),
    "N": st.integers(1, 2**40),
    "T_f": st.integers(1, 10**6),
    "trials": st.integers(1, 2**62),
    "seed": st.integers(-(2**64), 2**64),
    "P": _POSITIVE,
    "N_o": _POSITIVE,
    # k_o * N must be a finite float for every N drawn.
    "k_o": st.floats(min_value=0.0, max_value=sys.float_info.max / 2**40, exclude_min=True),
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
        output_path=draw(st.none() | st.text(min_size=1).filter(lambda t: "\0" not in t)),
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
    "T_f": _BAD_INT | st.integers(min_value=int(sys.float_info.max) + 1),
    "trials": _BAD_INT,
    "seed": _OTHER_TYPES | st.floats(),
    "P": _BAD_POSITIVE,
    "N_o": _BAD_POSITIVE,
    # base_doc has N = 100, so k_o * N leaves the float range.
    "k_o": _BAD_POSITIVE | st.floats(min_value=sys.float_info.max / 50, allow_infinity=False),
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
    "output_path": (
        st.booleans() | st.integers() | st.floats() | st.lists(st.text(), max_size=2)
        | st.builds("{}\0{}".format, st.text(), st.text())
    ),
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
        ({}, dict(mode="bogus")),
        ({}, dict(workers=True)),
    ],
    ids=["format", "output_path", "sweep", "mode", "workers"],
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


@pytest.mark.parametrize("route", ["spec-file", "--out"])
def test_empty_output_path_is_refused_before_any_write(tmp_path, monkeypatch, capsys, route):
    # An empty path names no file: it is refused, not replaced by the default bounds.json.
    monkeypatch.chdir(tmp_path)
    doc = {"command": "bounds", **base_doc(M=2, N=50, epsilon_o=0.05)}
    if route == "spec-file":
        doc["output_path"] = ""
    argv = ["--config", write_doc(tmp_path, doc), *(["--out", ""] if route == "--out" else [])]
    for fmt in ([], ["--format", "csv"]):
        assert main([*argv, *fmt]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "invalid-config"
        assert err["message"] == "output_path must be a nonempty string with no NUL, got ''"
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]
    with pytest.raises(ConfigError, match="nonempty"):
        ExperimentSpec("bounds", NetworkConfig(**doc["config"]), output_path="")


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "markov-verify"])
def test_channel_is_refused_by_every_command_but_markov_verify(tmp_path, capsys, command):
    doc = {"command": command, **base_doc(M=2, N=3, epsilon_o=0.05, trials=4)}
    out = tmp_path / "out"
    argv = ["--config", write_doc(tmp_path, doc), "--out", str(out), "--channel", "1,2,3"]
    assert main(argv) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "invalid-config",
        "message": f"--channel is for markov-verify only, not for command {command!r}",
    }
    assert not out.exists()


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "outage"])
def test_trained_mode_is_refused_by_every_command_but_outage(tmp_path, capsys, command):
    n = 3 if command == "markov-verify" else 50  # the exact chain's size, or a bound's
    doc = {"command": command, **base_doc(M=2, N=n, epsilon_o=0.05, trials=4)}
    out = tmp_path / "out"
    message = f"--mode 'trained' is for outage only, not for command {command!r}"
    spec = dataclasses.replace(loads_config(json.dumps(doc)), output_path=str(out))
    with pytest.raises(ConfigError) as refused:
        run(spec, mode="trained")
    assert str(refused.value) == message
    argv = ["--config", write_doc(tmp_path, doc), "--out", str(out), "--mode", "trained"]
    assert main(argv) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "invalid-config", "message": message}
    assert not out.exists()
    # The default mode is accepted by every command.
    run(spec, mode="idealized")
    assert out.exists()


def test_package_exports_each_module_all():
    modules = [getattr(feedbeam, m) for m in ("bounds", "channel", "config", "errors", "markov",
                                             "outage", "protocol", "rng", "special", "training")]
    declared = [(name, m) for m in modules for name in m.__all__]
    assert sorted(feedbeam.__all__) == sorted(name for name, _ in declared)
    assert len(set(feedbeam.__all__)) == len(feedbeam.__all__)
    assert all(getattr(feedbeam, name) is getattr(m, name) for name, m in declared)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(compile(code, "README.md", "exec"), names)
    assert names["weights"].shape == (2, 100)
    h = names["model"].h
    assert h.sum() - 1e-12 <= names["mean_gain"] <= np.abs(h).sum() + 1e-12
    assert names["result"].mode == "idealized" and names["result"].rate == names["report"].rate


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "must be a JSON object"),
        (json.dumps({"command": "bounds"}), "missing key: config"),
        (json.dumps({"command": "bounds", "config": [1]}), "config must be an object"),
        (json.dumps(base_doc(N=50, M=2, epsilon_o=0.05)), "no command given"),
        (json.dumps({**base_doc(M=1), "command": "protocol-compare"}), "requires M >= 2"),
        (None, "cannot read config file"),
    ],
    ids=["top-level-list", "no-config", "config-not-object", "no-command", "protocol-M1",
         "unreadable"],
)
def test_malformed_spec_exit_code(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "spec.json"
    if text is not None:
        path.write_text(text)
    assert main(["--config", str(path)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert message in err["message"]
    assert [p.name for p in tmp_path.iterdir()] == (["spec.json"] if text is not None else [])


def test_output_path_with_nul_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = base_doc(N=50, M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    assert main(["--config", path, "--out", "a\0b.json"]) == EXIT_CONFIG
    doc["output_path"] = "a\0b.json"
    assert main(["--config", write_doc(tmp_path, doc, "nul.json")]) == EXIT_CONFIG
    for err in capsys.readouterr().err.splitlines():
        assert json.loads(err)["error"] == "invalid-config"
        assert "output_path" in json.loads(err)["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nul.json", "spec.json"]


def test_markov_verify_refuses_huge_n_before_drawing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(feedbeam.cli, "RandomStream", None)  # any draw would fail
    doc = base_doc(N=2**62)
    doc["command"] = "markov-verify"
    out = tmp_path / "markov.csv"
    assert main(["--config", write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert err["message"] == f"exact chain supports 1 <= N <= 14, got N={2**62}"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, N",
    [("convergence", 2**62), ("interference-probe", 2**62), ("outage", 2**53)],
    ids=["convergence", "interference-probe", "outage"],
)
def test_huge_monte_carlo_is_refused_before_any_draw(tmp_path, monkeypatch, capsys, command, N):
    # N = 2^53 is the largest N that `outage_bound` admits.
    def no_draw(self):
        raise AssertionError("a generator was created")

    monkeypatch.setattr(feedbeam.rng.RandomStream, "generator", no_draw)
    monkeypatch.chdir(tmp_path)
    doc = base_doc(M=2, N=N, epsilon_o=0.05, trials=4)
    doc["command"] = command
    assert main(["--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "invalid-config"
    assert f"N={N}" in err["message"] and "bytes" in err["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize(
    "command, extra",
    [("outage", []), ("convergence", []), ("markov-verify", ["--channel", "0.5,-1.2,2.0,0.1"]),
     ("interference-probe", [])],
    ids=["outage", "convergence", "markov-verify", "interference-probe"],
)
def test_huge_trial_count_is_refused_before_any_draw(
    tmp_path, monkeypatch, capsys, command, extra
):
    # 2^62 trials are 2^48 chunks or more, far over the chunk count limit.
    def no_draw(self):
        raise AssertionError("a generator was created")

    monkeypatch.setattr(feedbeam.rng.RandomStream, "generator", no_draw)
    monkeypatch.chdir(tmp_path)
    doc = base_doc(M=2, N=4 if command == "markov-verify" else 50, epsilon_o=0.05, trials=2**62)
    doc["command"] = command
    assert main(["--config", write_doc(tmp_path, doc), *extra]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "invalid-config"
    assert err["message"].startswith(f"{2**62} trials take over 65536 chunks of ")
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_protocol_compare_ignores_trials_and_draws_nothing(tmp_path, monkeypatch):
    # sigma_I^2 is its closed form P M / 2, so 2^62 trials cost nothing.
    def no_draw(self):
        raise AssertionError("a generator was created")

    monkeypatch.setattr(feedbeam.rng.RandomStream, "generator", no_draw)
    doc = base_doc(M=2, N=50, P=10.0, trials=2**62)
    doc["command"] = "protocol-compare"
    out = tmp_path / "protocol.json"
    assert main(["--config", write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["sigma_I2"] == 10.0


@pytest.mark.parametrize(
    "command, extra",
    [("convergence", []), ("interference-probe", []), ("protocol-compare", []),
     ("outage", ["--mode", "trained"]), ("markov-verify", ["--channel", "0.5,-1.2,2.0,0.1"])],
    ids=["convergence", "interference-probe", "protocol-compare", "outage-trained",
         "markov-verify"],
)
@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(k_o=1e308, N=10), "k_o * N is too large for a float, got k_o=1e+308 and an N of "),
        (dict(N=2**1100), "k_o * N is too large for a float, got k_o=10.0 and an N of 1101 bits"),
        (dict(T_f=10**400), "T_f is too large for a float, got 1329 bits"),
    ],
    ids=["k_o", "N", "T_f"],
)
def test_config_beyond_float_range_is_refused_before_any_draw(
    tmp_path, monkeypatch, capsys, command, extra, overrides, message
):
    def no_draw(self):
        raise AssertionError("a generator was created")

    monkeypatch.setattr(feedbeam.rng.RandomStream, "generator", no_draw)
    monkeypatch.chdir(tmp_path)
    doc = base_doc(**{"M": 2, "N": 4 if command == "markov-verify" else 50, **overrides})
    doc["command"] = command
    assert main(["--config", write_doc(tmp_path, doc), *extra]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "invalid-config"
    assert err["message"].startswith(message)
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize(
    "command, extra, N, chunk_bytes",
    [
        ("outage", [], 2**53, 2000 * 2**53 * 8),
        ("outage", ["--mode", "trained"], 2**53, TRIAL_CHUNK * 2**53 * 8),
        ("interference-probe", [], 2**62, TRIAL_CHUNK * 2**62 * 8),
    ],
    ids=["outage", "outage-trained", "interference-probe"],
)
def test_huge_sweep_point_is_refused_before_any_draw(
    tmp_path, monkeypatch, capsys, command, extra, N, chunk_bytes
):
    # Every point's chunk size is settled before the Monte Carlo of the first point.
    calls = []
    generator = feedbeam.rng.RandomStream.generator

    def spy(self):
        calls.append(self.label)
        return generator(self)

    monkeypatch.setattr(feedbeam.rng.RandomStream, "generator", spy)
    monkeypatch.chdir(tmp_path)
    doc = base_doc(M=2, N=50, epsilon_o=0.05, trials=2000)
    doc["command"] = command
    doc["sweep"] = [50, N]
    assert main(["--config", write_doc(tmp_path, doc), *extra]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "invalid-config",
        "message": f"a chunk's channels at N={N} take {chunk_bytes} bytes, over {2**31}",
    }
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_protocol_compare_runs_at_huge_m_in_little_memory(tmp_path, capsys):
    # sigma_I^2 is P M / 2 with no per-link array: one double per link of 2^40
    # links would be 8 TiB.
    M = 2**40
    doc = base_doc(M=M, N=50, P=100.0, epsilon_o=0.05)
    doc["command"] = "protocol-compare"
    path = write_doc(tmp_path, doc)
    for fmt in FORMATS:
        out = tmp_path / f"p.{fmt}"
        tracemalloc.start()
        try:
            code = main(["--config", path, "--format", fmt, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, capsys.readouterr().err
        if fmt == "csv":
            header, row = out.read_text().splitlines()
            report = dict(zip(header.split(","), row.split(",")))
            assert (report["M"], float(report["sigma_I2"])) == (str(M), 100.0 * M / 2)
        else:
            report = json.loads(out.read_text())
            assert (report["M"], report["sigma_I2"]) == (M, 100.0 * M / 2)
        assert peak < 2**20, fmt


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"M": 2**600}, "M^2 is too large for a float, got an M of 601 bits"),
        ({"M": 2**1100}, "M is too large for a float, got an M of 1101 bits"),
        ({"M": 2**511}, "the protocols' bit counts are too large for a float, got an M of "
                        "512 bits and sigma_I^2 = 3.35195e+155"),
        ({"M": 4, "P": 1e308}, "the protocols' bit counts are too large for a float, got an M of "
                               "3 bits and sigma_I^2 = inf"),
    ],
    ids=["M^2", "M", "bits", "sigma"],
)
def test_protocol_compare_refuses_m_beyond_float_range(
    tmp_path, monkeypatch, capsys, overrides, message
):
    # The sequential protocol's bits count M^2 N slots, and sigma_I^2 is P M / 2:
    # the bit counts grow like M^3, and like sigma_I^2.
    monkeypatch.chdir(tmp_path)
    doc = base_doc(N=100, **overrides)
    doc["command"] = "protocol-compare"
    assert main(["--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "invalid-config", "message": message}
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize("command", ["bounds", "outage"])
@pytest.mark.parametrize(
    "overrides, threshold",
    [({"M": 2**511, "P": 1.0}, "7.95575e-155"), ({"M": 2**600, "P": 1.0}, "1.28532e-181"),
     ({"M": 1, "P": 1e-300}, "2.94605e-303")],
    ids=["M=2^511", "M=2^600", "P=1e-300"],
)
def test_a_rate_that_rounds_to_zero_is_refused(
    tmp_path, monkeypatch, capsys, command, overrides, threshold
):
    # 1 + SINR threshold == 1 in floats, so (1/2) log2(1 + threshold) would read 0.
    monkeypatch.chdir(tmp_path)
    doc = base_doc(N=100, **overrides)
    doc["command"] = command
    assert main(["--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "invalid-config",
        "message": f"the rate rounds to 0 at N=100: the SINR threshold {threshold} "
        "is below the float resolution of 1 + SINR",
    }
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_convergence_at_huge_m_is_refused_at_once(tmp_path, monkeypatch, capsys):
    # The chunk plan needs only the number of groups, so 2^40 of them are
    # refused before any draw.
    monkeypatch.chdir(tmp_path)
    doc = base_doc(M=2**40, N=100, trials=1)
    doc["command"] = "convergence"
    start = time.perf_counter()
    assert main(["--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "invalid-config"
    assert err["message"].startswith("a chunk's channels and traces at N=100 take ")
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize("mode", ["idealized", "trained"])
def test_outage_runs_at_huge_m_in_little_memory(tmp_path, capsys, mode):
    # 2^40 - 1 interferers per trial are one gamma draw; as amplitudes, a chunk
    # of 200 trials would take 1.56 PiB.
    M = 2**40
    doc = base_doc(M=M, N=200, epsilon_o=0.05, trials=200)
    doc["command"] = "outage"
    out = tmp_path / "outage.csv"
    tracemalloc.start()
    try:
        code = main(["--config", write_doc(tmp_path, doc), "--mode", mode, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    header, *rows = out.read_text().splitlines()
    assert len(rows) == 1
    assert dict(zip(header.split(","), rows[0].split(",")))["M"] == str(M)
    assert peak < 8 * 2**20


def test_markov_verify_at_the_dense_limit_runs_in_little_memory(tmp_path):
    # The dense 4^N matrix (16 MiB at N = 10) is built only when read, and
    # markov-verify never reads it.
    doc = {"command": "markov-verify", **base_doc(M=1, N=10, trials=5000)}
    doc["output_path"] = str(tmp_path / "markov.json")
    doc["format"] = "json"
    spec = loads_config(json.dumps(doc))
    tracemalloc.start()
    try:
        run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((tmp_path / "markov.json").read_text())["N"] == 10
    assert peak < 8 * 2**20


def test_convergence_refuses_traces_over_the_chunk_byte_limit(tmp_path, monkeypatch, capsys):
    # One trial's channels at N = 2^24 are 128 MiB, under the limit; its trace of
    # k_o N = 10 * 2^24 frames at 13 bytes a frame (8 of gain, a uint32 aligned
    # count and 1 of acceptance) is 2.03 GiB, over it.
    def no_draw(self):
        raise AssertionError("a generator was created")

    monkeypatch.setattr(feedbeam.rng.RandomStream, "generator", no_draw)
    monkeypatch.chdir(tmp_path)
    doc = base_doc(M=1, N=2**24, k_o=10.0, trials=1)
    doc["command"] = "convergence"
    assert main(["--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "invalid-config"
    assert err["message"] == (
        f"a chunk's channels and traces at N={2**24} take {2**27 + 10 * 2**24 * 13} bytes, "
        f"over {2**31}"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_csv_refuses_a_column_beyond_64_bit_integers(tmp_path, capsys):
    # The protocol comparison draws nothing, so any N reaches the writer.
    N = 2**90
    doc = base_doc(M=3, N=N, epsilon_o=0.05)
    doc["command"] = "protocol-compare"
    path = write_doc(tmp_path, doc)
    csv_out, json_out = tmp_path / "p.csv", tmp_path / "p.json"
    flags = ["--config", path]
    assert main([*flags, "--format", "csv", "--out", str(csv_out)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "invalid-config", "message": "column 'N' has no CSV cell type: object"}
    assert not csv_out.exists()
    assert main([*flags, "--format", "json", "--out", str(json_out)]) == EXIT_OK
    assert json.loads(json_out.read_text())["N"] == N


@pytest.mark.parametrize("cell", ["a\0b", "\ud800", "x\udfffy", "\0\udc80"])
def test_csv_refuses_text_it_cannot_hold_and_json_escapes_it(tmp_path, monkeypatch, capsys, cell):
    # No runner makes such a cell, so one that does stands in for `bounds`.
    rows = _table(["N", "mode"], [[50, 60], ["idealized", cell]])

    def runner(spec, flags):
        return rows, rows, []

    monkeypatch.setitem(_TABLE, "bounds", _TABLE["bounds"]._replace(runner=runner))
    doc = base_doc(N=50, M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    csv_out, json_out = tmp_path / "b.csv", tmp_path / "b.json"
    assert main(["--config", path, "--format", "csv", "--out", str(csv_out)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "invalid-config",
        "message": "column 'mode' has a cell with a NUL or a lone surrogate, "
        f"which CSV cannot hold: {cell!r}",
    }
    assert not csv_out.exists()
    assert main(["--config", path, "--format", "json", "--out", str(json_out)]) == EXIT_OK
    assert json_out.read_text(encoding="ascii") == _reference_json_text(rows)
    assert json.loads(json_out.read_text())[1] == {"N": 60, "mode": cell}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("cell", ["a\0", "\0", "a\0b\0\0"])
def test_a_text_cell_ending_in_nul_is_refused_in_both_formats(
    tmp_path, monkeypatch, capsys, fmt, cell
):
    # A numpy text column drops trailing NULs, so the table refuses the cell
    # instead of writing it short. No runner makes one; this one stands in for `bounds`.
    def runner(spec, flags):
        rows = _table(["N", "mode"], [[50, 60], ["idealized", cell]])
        return rows, rows, []

    monkeypatch.setitem(_TABLE, "bounds", _TABLE["bounds"]._replace(runner=runner))
    doc = base_doc(N=50, M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    out = tmp_path / f"b.{fmt}"
    assert main(["--config", path, "--format", fmt, "--out", str(out)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "invalid-config",
        "message": "column 'mode' has a text cell ending in NUL, "
        f"which a text column cannot hold: {cell!r}",
    }
    assert not out.exists()


def test_unwritable_path_exit_code(tmp_path, capsys):
    doc = base_doc(N=50, M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "no-such-dir" / "x.json")
    assert main(["--config", path, "--out", out]) == EXIT_UNWRITABLE
    assert json.loads(capsys.readouterr().err)["error"] == "unwritable-path"
    # The rename onto a directory fails after the temp file is written; it is removed.
    (tmp_path / "taken").mkdir()
    assert main(["--config", path, "--out", str(tmp_path / "taken")]) == EXIT_UNWRITABLE
    assert json.loads(capsys.readouterr().err)["error"] == "unwritable-path"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "taken"]
    assert list((tmp_path / "taken").iterdir()) == []


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


# Flags the parser cannot read, and values the spec or `run` refuse: each returns 2
# with one JSON line that names the flag or the value.
@pytest.mark.parametrize(
    "flags, named",
    [
        (["--out", "x.json"], ["--config"]),
        (["--bogus", "1"], ["--bogus"]),
        (["--format", "xml"], ["format", "'xml'"]),
        (["--mode", "bogus"], ["mode", "'bogus'"]),
        # An option that no longer exists is an unknown flag.
        (["--sigma-source", "analytic"], ["unrecognized arguments: --sigma-source"]),
        (["--workers", "abc"], ["--workers", "'abc'"]),
        (["--seed", "x"], ["--seed", "'x'"]),
        (["--form", "json"], ["--form"]),
    ],
    ids=[
        "no-config", "unknown-flag", "format", "mode", "sigma-source", "workers", "seed",
        "abbreviated",
    ],
)
def test_bad_flag_exit_code(tmp_path, monkeypatch, capsys, flags, named):
    monkeypatch.chdir(tmp_path)
    doc = base_doc(N=50, M=2, epsilon_o=0.05)
    doc["command"] = "bounds"
    path = write_doc(tmp_path, doc)
    argv = flags if flags[0] == "--out" else ["--config", path, *flags]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    err = json.loads(err)
    assert err["error"] == "invalid-config"
    assert all(word in err["message"] for word in named), err["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_help_lists_allowed_values_and_exits_zero(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside a value
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for values in (COMMANDS, FORMATS, WEIGHTS_MODES):
        assert ", ".join(values) in text


# Values of each flag that the spec and `run` accept, and values they refuse; the
# paths of --config and --out are drawn under each example's own directory.
_GOOD_FLAGS = {
    "--command": ["bounds", "outage", "convergence", "markov-verify"],
    "--format": ["csv", "json"],
    # One trial is one chunk, so every run is serial whatever the count.
    "--workers": ["1", "2"],
    "--seed": ["0", "7", "-1"],
    "--mode": ["idealized", "trained"],
    # Parsed, then refused by markov-verify unless it holds N nonzero entries.
    "--channel": ["1,2", ",".join(map(str, range(1, 11))), ",".join(map(str, range(10)))],
}
_BAD_FLAGS = {
    "--command": ["nope"],
    "--format": ["xml"],
    "--workers": ["0", "-3", "abc"],
    "--seed": ["x"],
    "--mode": ["bogus"],
    "--channel": ["1,x"],
    "--bogus": ["1"],
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from([10, 50]))
def test_main_returns_a_code_and_one_json_line_for_any_flags(tmp_path_factory, data, n):
    tmp = tmp_path_factory.mktemp("argv")
    doc = base_doc(N=n, epsilon_o=0.05, k_o=2.0)
    doc["config"].pop("trials")
    doc.update(command="bounds", output_path=str(tmp / "spec-out"))
    good = {**_GOOD_FLAGS, "--config": [write_doc(tmp, doc)], "--out": [str(tmp / "out")]}
    bad = {
        **_BAD_FLAGS,
        "--config": [None, str(tmp / "absent.json")],  # left out, or a missing file
        "--out": [str(tmp), str(tmp / "a\0b")],  # a directory, or a path holding NUL
    }
    flags = data.draw(
        st.fixed_dictionaries(
            {"--config": st.sampled_from(good["--config"])},
            optional={k: st.sampled_from(v) for k, v in good.items() if k != "--config"},
        )
    )
    wrong = data.draw(st.none() | st.sampled_from(sorted(bad)))
    if wrong is not None:
        flags[wrong] = data.draw(st.sampled_from(bad[wrong]))
    pairs = data.draw(st.permutations([(k, v) for k, v in flags.items() if v is not None]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg for pair in pairs for arg in pair])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_UNKNOWN_COMMAND, EXIT_UNWRITABLE)
    if code == EXIT_OK:
        assert err.getvalue() == ""
    else:
        (line,) = err.getvalue().splitlines()
        assert json.loads(line)["error"] in ("invalid-config", "unknown-command", "unwritable-path")


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


def test_a_serial_run_loads_neither_the_pool_nor_the_parser(tmp_path):
    # The process pool and argparse are imported where they are used, so a
    # one-worker `run` of a spec built in code does not pay for them at start-up.
    doc = {"command": "convergence", **base_doc(M=2, N=10, trials=4, k_o=2.0)}
    doc["output_path"] = str(tmp_path / "conv.csv")
    code = (
        "import sys\n"
        "import feedbeam.cli\n"
        f"feedbeam.cli.run(feedbeam.cli.loads_config({json.dumps(doc)!r}), workers=1)\n"
        "heavy = ('multiprocessing', 'concurrent.futures.process', 'argparse')\n"
        "print([m for m in heavy if m in sys.modules])\n"
    )
    assert last_line_of_python(code) == "[]"
    assert (tmp_path / "conv.csv").read_text().startswith("trial,group,t,")


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


def test_markov_verify_absorbing_start_reports_zero_deviation(tmp_path, capsys):
    # Every h_j > 0: the chain starts absorbed, the exact std is 0, and the
    # simulated mean differs from the exact one by one rounding.
    doc = base_doc(N=2, trials=5000)
    doc["command"] = "markov-verify"
    out = tmp_path / "markov.json"
    args = ["--config", write_doc(tmp_path, doc), "--channel", "0.1,0.2", "--format", "json"]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    assert "max_dev=0.00 stderr units" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["start_code"] == report["absorbing_code"] == 3
    assert report["expected_gain"] == [
        {"exact": 0.30000000000000004, "simulated": 0.3, "stderr": 0.0, "t": t} for t in (1, 10, 50)
    ]


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
    assert len(lines) - 1 == cfg.trials * cfg.M * res.gain.shape[2]
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
    # The JSON row has every column and the evaluated link, which is always link 0.
    out3 = tmp_path / "outage.json"
    assert main(["--config", path, "--out", str(out3), "--format", "json"]) == EXIT_OK
    doc3 = json.loads(out3.read_text())
    assert sorted(doc3) == sorted([*lines[0].split(","), "link"])
    assert doc3["link"] == 0


def test_outage_summary_shows_stderr_only_between_no_and_every_outage(tmp_path, capsys):
    # At N = 50 about 1 % of the trials are in outage; at N = 120 none is.
    doc = base_doc(N=50, M=4, P=0.02, epsilon_o=0.05, trials=2000)
    doc["command"] = "outage"
    doc["sweep"] = [50, 120]
    out = tmp_path / "outage.csv"
    assert main(["--config", write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    some, none = capsys.readouterr().out.splitlines()
    counts = [line.split(",")[6] for line in out.read_text().splitlines()[1:]]
    assert float(counts[0]) > 0 and float(counts[1]) == 0
    assert "(+-" in some and "95% CI [" in some
    assert "+-" not in none
    assert "empirical=0.000000 (95% CI [0.000000, " in none


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


def test_interference_probe_json_matches_csv(tmp_path):
    doc = base_doc(N=20, trials=200, k_o=4.0)
    doc["command"] = "interference-probe"
    doc["sweep"] = [20, 30, 40]
    path = write_doc(tmp_path, doc)
    out_csv, out_json = str(tmp_path / "probe.csv"), str(tmp_path / "probe.json")
    assert main(["--config", path, "--out", out_csv]) == EXIT_OK
    assert main(["--config", path, "--out", out_json, "--format", "json"]) == EXIT_OK
    lines = open(out_csv).read().splitlines()
    csv_rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    report = json.loads(open(out_json).read())
    assert sorted(report) == ["rows", "slope"]
    fields = ["N", "trials", "mean_sq", "control_sq", "sample_mean"]
    assert [sorted(r) for r in report["rows"]] == [sorted(fields)] * 3
    assert [r["N"] for r in report["rows"]] == [20, 30, 40]
    for row, csv_row in zip(report["rows"], csv_rows):
        for name in fields:
            assert float(csv_row[name]) == row[name], name
        assert float(csv_row["slope"]) == report["slope"]


def test_protocol_compare_json(tmp_path):
    doc = base_doc(N=32, M=4, P=10.0, N_o=1.0, trials=128, k_o=4.0)
    doc["command"] = "protocol-compare"
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "protocol.json")
    assert main(["--config", path, "--out", out]) == EXIT_OK
    report = json.loads(open(out).read())
    assert sorted(report) == sorted(
        ["N", "M", "sigma_I2", "frame_ratio", "condition_lhs", "condition_rhs",
         "modified_better", "bits_modified", "bits_original", "rate_assumed"]
    )
    assert report["sigma_I2"] == 10.0 * 4 / 2  # P * M / 2
    assert report["modified_better"] is False


def test_protocol_compare_csv_columns(tmp_path):
    doc = base_doc(N=32, M=3, P=10.0)
    doc["command"] = "protocol-compare"
    doc["sweep"] = [32, 64]
    out = tmp_path / "protocol.csv"
    flags = ["--out", str(out), "--format", "csv"]
    assert main(["--config", write_doc(tmp_path, doc), *flags]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "N,M,sigma_I2,frame_ratio,condition_lhs,condition_rhs,modified_better,"
        "bits_modified,bits_original,rate_assumed"
    )
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(r["N"], r["M"], r["sigma_I2"]) for r in rows] == [("32", "3", "15"), ("64", "3", "15")]
    assert [r["modified_better"] for r in rows] == ["0", "0"]


def test_protocol_compare_summary_stays_short_at_a_huge_power(tmp_path, capsys):
    # sigma_I^2 = P M / 2 = 2e300: the summary line gives it, like the artifact,
    # in a few significant digits, not as all 301 digits of the float.
    doc = base_doc(M=4, N=100, P=1e300, epsilon_o=0.05)
    doc["command"] = "protocol-compare"
    out = tmp_path / "protocol.json"
    assert main(["--config", write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    (line,) = capsys.readouterr().out.splitlines()
    assert len(line) <= 100, line
    assert "sigma_I2=2e+300 lhs=2e+300 rhs=0.6 " in line
    assert json.loads(out.read_text())["sigma_I2"] == 2e300


# Every Monte Carlo command, each with more than one chunk so that two
# workers really split the work, and protocol-compare, which draws nothing.
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


# Each Monte Carlo command with trials, or trajectories, that span two chunks;
# the keyword arguments of `run` besides the workers.
_TWO_CHUNKS = {
    "convergence": (dict(M=2, N=6, trials=TRIAL_CHUNK + 1), {}),
    "markov-verify": (dict(N=4, trials=TRAJ_CHUNK + 1), {}),
    "outage-idealized": (dict(M=2, N=50, trials=TRAJ_CHUNK + 1), dict(mode="idealized")),
    "outage-trained": (dict(M=2, N=50, trials=TRIAL_CHUNK + 1), dict(mode="trained")),
    "interference-probe": (dict(N=6, trials=TRIAL_CHUNK + 1), {}),
}


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(sorted(_TWO_CHUNKS)),
    seed=st.integers(0, 2**64 - 1),
    k_o=st.sampled_from([1.0, 2.0]),
    fmt=st.sampled_from(FORMATS),
)
def test_run_artifacts_do_not_depend_on_worker_count(name, seed, k_o, fmt):
    config, flags = _TWO_CHUNKS[name]
    config = NetworkConfig(**base_doc(**config, seed=seed, k_o=k_o, epsilon_o=0.05)["config"])
    command = name.removesuffix("-idealized").removesuffix("-trained")
    spec = ExperimentSpec(command, config, format=fmt)
    with tempfile.TemporaryDirectory() as tmp:
        blobs = []
        for workers in (1, 2):
            out = os.path.join(tmp, f"workers{workers}")
            run(dataclasses.replace(spec, output_path=out), workers=workers, **flags)
            blobs.append(Path(out).read_bytes())
    assert blobs[0] == blobs[1]


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


def fmt_cell(x):
    """One cell formatted on its own: the writer's reference."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def per_cell_csv(columns, rows):
    """The writer's reference: every cell formatted on its own by `fmt_cell`."""
    lines = [",".join(columns)] + [",".join(fmt_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


# A text column as a list of cells, numpy making it a `U` array: any text,
# NUL, lone surrogates, non-ASCII and empty cells included.
_TEXT_CELLS = st.text(st.characters(exclude_categories=()))
# Columns given as arrays, which keep their dtype.
_DTYPES = ["bool", "int8", "int32", "int64", "uint64", "float32", "float64"]
# Array columns whose cells repeat: every cell is one of a pool of at most three values.
_POOLED = [f"{dtype} pooled" for dtype in _DTYPES]
# A float column of at most eight runs of one value each, so runs cross block edges.
_RUNS = "float64 runs"
# The values a float column must keep apart (-0.0, 0.0), that never compare
# equal, that are not finite, or the smallest subnormal.
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]


def column(kind, n_rows):
    """A strategy for one column of ``n_rows`` cells of the given kind.

    Every strategy draws arrays, which are sparse above a few hundred cells:
    a few hundred drawn cells, and one drawn fill value in all other rows.
    """
    if kind == "text":
        return arrays(object, n_rows, elements=_TEXT_CELLS).map(list)
    if kind == _RUNS:
        values = st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(), min_size=8, max_size=8)
        edges = st.lists(st.integers(0, n_rows), min_size=7, max_size=7).map(sorted)
        return st.tuples(values, edges).map(
            lambda ve: np.repeat(np.array(ve[0]), np.diff([0, *ve[1], n_rows]))
        )
    if kind in _POOLED:
        dtype = np.dtype(kind.split()[0])
        elements = from_dtype(dtype)
        if dtype.kind == "f":
            elements = st.sampled_from(_EDGE_FLOATS) | elements
        return st.lists(elements, min_size=1, max_size=3).flatmap(
            lambda pool: arrays(np.intp, n_rows, elements=st.integers(0, len(pool) - 1)).map(
                lambda index: np.array(pool, dtype=dtype)[index]
            )
        )
    return arrays(kind, n_rows)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_csv_writer_matches_per_cell_formatting(data):
    n_rows = data.draw(st.integers(0, 12))
    kinds = data.draw(
        st.lists(st.sampled_from(["text"] + _DTYPES + _POOLED), min_size=1, max_size=6)
    )
    values = [data.draw(column(kind, n_rows)) for kind in kinds]
    columns = [f"c{i}" for i in range(len(kinds))]
    # A `U` array would drop a cell's trailing NULs: the first text column with
    # such a cell is refused by name, in any format.
    short = [
        name
        for name, kind, cells in zip(columns, kinds, values)
        if kind == "text" and any(s.endswith("\0") for s in cells)
    ]
    if short:
        with pytest.raises(CapacityError, match=f"^column '{short[0]}' has a text cell ending"):
            _table(columns, values)
        return
    rows = _table(columns, values)
    assert len(rows) == n_rows and rows.names == tuple(columns)
    # A NUL the array holds would go with the padding, and a lone surrogate has
    # no UTF-8 bytes: the first text column holding either is refused by name.
    refused = [
        name
        for name, kind, cells in zip(columns, kinds, values)
        if kind == "text" and any(re.search(r"[\x00\ud800-\udfff]", s) for s in cells)
    ]
    if refused:
        with pytest.raises(FeedbeamError, match=f"^column '{refused[0]}' has a cell with a NUL"):
            _csv_text(rows)
    else:
        assert _csv_text(rows) == per_cell_csv(columns, list(zip(*values)))


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
        [math.nan if i % 7 == 0 else float(g) for i, g in enumerate(gain)],
        # ASCII but for one cell in the last block, so the text changes kind
        # while it grows.
        ["idealized"] * (n - 2) + ["snow \u2603", "idealized"],
    ]
    columns = ["trial", "gain", "accepted", "code", "bound_finite", "mode"]
    rows = _table(columns, values)
    text = _csv_text(rows)
    assert text == per_cell_csv(columns, list(zip(*values)))
    assert text.count("\n") == n + 1
    assert ",nan,idealized\n" in text and ",-0," in text
    assert text.index("\u2603") > text.index(f"\n{2 * _BLOCK_ROWS},")


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
    # A run of NaNs of three bit patterns that ends across the last block edge.
    nan_bits = gain[2 * _BLOCK_ROWS - 40 : 2 * _BLOCK_ROWS].view(np.uint64)
    nan_bits[:15], nan_bits[15:30] = 0x7FF8000000000001, 0xFFF8000000000000
    nan_bits[30:] = 0x7FF8000000000000
    # Runs of 8: each block spans fewer values than it has rows, the whole column more.
    runs = np.repeat(np.arange(n // 8 + 1, dtype=np.uint32), 8)[:n] * 5
    assert int(runs.max()) >= _BLOCK_ROWS > int(np.ptp(runs[:_BLOCK_ROWS]))
    values = [
        gen.integers(0, 3, n).astype(np.int64),
        gain,
        gen.random(n) < 0.02,
        np.repeat(np.arange(3, dtype=np.uint16), n // 3 + 1)[:n],
        gain.astype(np.float32),
        runs,
        np.ones(n, dtype=bool),
    ]
    for block in range(3):
        zeros = gain[block * _BLOCK_ROWS : (block + 1) * _BLOCK_ROWS]
        zeros = zeros[zeros == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    columns = ["group", "gain", "accepted", "code", "gain32", "runs", "always"]
    text = _csv_text(_table(columns, values))
    assert text == per_cell_csv(columns, list(zip(*values)))
    for cell in ("-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324"):
        assert f",{cell}," in text, cell
    row = 2 * _BLOCK_ROWS - 26  # a NaN with payload bits, on line row + 1
    assert text.split("\n")[row + 1].startswith(f"{values[0][row]},nan,")


def test_csv_writer_edge_cells_across_two_block_edges():
    n = 2 * _BLOCK_ROWS + 7
    gen = np.random.default_rng(17)
    edges = [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS, n - 1]
    # Text cells of unequal byte lengths: non-ASCII, empty and ASCII; the last
    # block is all empty cells, so its cells are NUL padding only.
    pool = ["é", "", "idealized", "a", "ß b"]
    text_cells = [pool[i] for i in gen.integers(0, len(pool), n)]
    for i, cell in zip(edges[:4], ["é", "idealized", "", "a"]):
        text_cells[i] = cell
    text_cells[2 * _BLOCK_ROWS :] = [""] * (n - 2 * _BLOCK_ROWS)
    # int64 at both ends of its range: no lookup table fits that span.
    wide = gen.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True)
    wide[[0, _BLOCK_ROWS - 1, _BLOCK_ROWS, n - 1]] = [-(2**63), 2**63 - 1, 2**63 - 1, -(2**63)]
    # uint64 above 2^63: spread out in the first block, a narrow span near 2^64 after it.
    big = gen.integers(2**63, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    big[_BLOCK_ROWS:] = np.uint64(2**64 - 1) - gen.integers(0, 4, n - _BLOCK_ROWS).astype(np.uint64)
    # int8 spans in which v - min wraps in int8: the whole range, and 201 values.
    small = gen.integers(-128, 127, n, dtype=np.int8, endpoint=True)
    small[_BLOCK_ROWS : 2 * _BLOCK_ROWS] = gen.integers(-100, 100, _BLOCK_ROWS, endpoint=True)
    small[edges] = [-128, 127, -100, 100, -128, 127]
    flags = gen.random(n) < 0.5
    flags[_BLOCK_ROWS : 2 * _BLOCK_ROWS] = True  # a block of one bool value
    single = (gen.standard_normal(n) * 1e3).astype(np.float32)
    single[edges[:4]] = [np.float32(-0.0), np.nan, np.inf, np.finfo(np.float32).tiny]
    # A block that is all -0.0 next to blocks that are all 0.0.
    zeros = np.zeros(n)
    zeros[:_BLOCK_ROWS] = -0.0
    values = [text_cells, wide, big, small, flags, single, zeros]
    columns = ["text", "wide", "big", "small", "flag", "single", "zero"]
    text = _csv_text(_table(columns, values))
    assert text == per_cell_csv(columns, list(zip(*values)))
    lines = text.split("\n")
    assert lines[1] == f"é,{-(2**63)},{int(big[0])},-128,{int(flags[0])},-0,-0"
    assert lines[_BLOCK_ROWS].startswith("idealized,9223372036854775807,")
    assert lines[_BLOCK_ROWS + 1].startswith(",9223372036854775807,")  # the empty cell
    assert lines[_BLOCK_ROWS + 1].endswith(",-100,1,inf,0")
    assert lines[2 * _BLOCK_ROWS].startswith("a,")
    assert lines[2 * _BLOCK_ROWS + 1].startswith(",")
    assert lines[n].startswith(",-9223372036854775808,18446744073709551")


def _reference_jsonable(obj):
    """JSON values of a document, one Python dict per row of a column table and
    None for a non-finite float."""
    if isinstance(obj, _Table):
        rows = zip(*(obj[name].tolist() for name in obj.names))
        return [_reference_jsonable(dict(zip(obj.names, row))) for row in rows]
    if isinstance(obj, dict):
        return {k: _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _reference_jsonable(dataclasses.asdict(obj))
    return obj


def _reference_json_text(doc):
    """The JSON writer's reference: json.dumps of the whole document, a dict per row."""
    return json.dumps(_reference_jsonable(doc), indent=2, sort_keys=True) + "\n"


# Field names that sort out of order and that JSON escapes, next to strings
# and non-finite floats that look like the writer's stand-in for a column table.
_FIELD_NAMES = ["b", "a", 'q"t', "é", "\u2603", "back\\slash", "tab\tstop", "NaN"]


def _json_doc(rows, depth):
    """A document holding ``rows`` at ``depth``: the whole document, a dict
    value, or in a list inside a dict, next to a table of its first row."""
    if depth == 0:
        return rows
    if depth == 1:
        return {"states": rows, "NaN": "NaN", "a": [math.nan, "x,\nNaN"], "z": -math.inf}
    head = _table(rows.names, [rows[name][:1] for name in rows.names])
    return {"N": 3, "runs": [rows, "NaN", math.nan, {"NaN": None}, head], "NaN": [math.nan]}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_json_writer_matches_the_reference_at_any_depth(data):
    # Blocks of 256 rows, 64 as JSON, keep the many-block case small and fast;
    # the trace-size JSON pin in CI covers the full 4096-row JSON block.
    with mock.patch.object(artifact, "_BLOCK_ROWS", 256):
        n_rows = data.draw(st.sampled_from([0, 1, 2 * artifact._BLOCK_ROWS + 3]))
        names = data.draw(
            st.lists(st.sampled_from(_FIELD_NAMES), min_size=1, max_size=4, unique=True)
        )
        kinds = [data.draw(st.sampled_from(["text", _RUNS] + _DTYPES + _POOLED)) for _ in names]
        values = [data.draw(column(kind, n_rows)) for kind in kinds]
        # A `U` array would drop a cell's trailing NULs, so such a cell is refused.
        if any(
            kind == "text" and any(s.endswith("\0") for s in v) for kind, v in zip(kinds, values)
        ):
            with pytest.raises(CapacityError, match="has a text cell ending in NUL"):
                _table(names, values)
            return
        rows = _table(names, values)
        assert rows.names == tuple(names) and len(rows) == n_rows
        doc = _json_doc(rows, data.draw(st.sampled_from([0, 1, 2])))
        text, reference = _json_text(doc), _reference_json_text(doc)
        # Shown from the first difference: a diff of whole texts takes minutes.
        if text != reference:
            at = next(i for i, (a, b) in enumerate(zip(text + "\0", reference + "\1")) if a != b)
            around = slice(max(at - 60, 0), at + 60)
            pytest.fail(f"first difference at {at}: {text[around]!r} != {reference[around]!r}")


def test_writers_hold_the_text_once(monkeypatch):
    # Forty blocks of a trace-like table. Each block is appended to one `str`
    # that grows in place, so a writer's peak is the text plus a few blocks'
    # temporaries; the text held also as bytes would take twice the text.
    # Were the `str` not grown in place, each block would copy the whole text
    # (quadratic in the blocks) and the peak would be twice the text too.
    # Small blocks keep the table small; a cold CPython 3.11 copies its first
    # few blocks, which forty blocks leave far below the text.
    monkeypatch.setattr(artifact, "_BLOCK_ROWS", 1024)
    n = 40 * 1024 - 3
    gen = np.random.default_rng(23)
    gain = np.repeat(gen.standard_normal(n // 16 + 1), 16)[:n]  # runs of 16
    t = np.tile(np.arange(1000, dtype=np.uint16), n // 1000 + 1)[:n]
    columns = ["t", "gain", "accepted"]
    values = [t, gain, gen.random(n) < 0.06]
    rows = _table(columns, values)
    doc = {"N": 100, "trace": rows}
    for write, arg, reference in [
        (_csv_text, rows, lambda: per_cell_csv(columns, list(zip(*values)))),
        (_json_text, doc, lambda: _reference_json_text(doc)),
    ]:
        tracemalloc.start()
        try:
            text = write(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(text), (write.__name__, peak / len(text))
        assert text == reference(), write.__name__
        del text


def test_row_blocks_of_a_trace_stay_near_one_mib(monkeypatch):
    # The columns of a `convergence` trace in its dtypes, as `_cmd_convergence`
    # makes them, over two block edges. A JSON row is four times as wide as a
    # CSV row; its blocks stay near the bytes of a CSV block all the same.
    trials, groups, frames = 40, 2, 410
    gen = np.random.default_rng(29)
    gain = np.repeat(gen.standard_normal(trials * groups * frames // 8) * 50, 8)
    n = len(gain)
    assert n > 2 * _BLOCK_ROWS
    names = ("trial", "group", "t", "gain", "aligned_count", "accepted")
    rows = _table(
        names,
        [
            np.repeat(np.arange(trials, dtype=np.uint8), groups * frames),
            np.tile(np.repeat(np.arange(groups, dtype=np.uint8), frames), trials),
            np.tile(np.arange(frames, dtype=np.uint16), trials * groups),
            gain,
            gen.integers(0, 101, n).astype(np.uint8),
            gen.random(n) < 0.06,
        ],
    )
    csv_pieces = [b"", *[b","] * (len(names) - 1), b"\n"]
    csv_blocks = [bytes(b) for b in artifact._row_blocks(rows, names, "csv", csv_pieces)]
    json_blocks = [bytes(b) for b in artifact._record_blocks(rows, "")]
    assert b"".join(csv_blocks).decode() == _csv_text(rows).split("\n", 1)[1]
    assert b"".join(json_blocks).decode() + "\n" == _json_text(rows)
    assert len(csv_blocks) == 3 and max(map(len, csv_blocks)) <= 1 << 20
    assert max(map(len, json_blocks)) <= 1 << 20
    # The block size the writer tests patch in still puts JSON rows on both
    # sides of a block edge: the brackets, then more than one block of rows.
    monkeypatch.setattr(artifact, "_BLOCK_ROWS", 256)
    assert len(list(artifact._record_blocks(_table(["x"], [np.arange(515)]), ""))) > 3


_RUNNER_CASES = {
    "convergence": ("convergence", {}),
    "markov-verify": ("markov-verify", {}),
    "bounds": ("bounds", {}),
    **{f"outage-{mode}": ("outage", {"mode": mode}) for mode in WEIGHTS_MODES},
    "interference-probe": ("interference-probe", {}),
    "protocol-compare": ("protocol-compare", {}),
}


@pytest.mark.parametrize("command, flags", _RUNNER_CASES.values(), ids=_RUNNER_CASES.keys())
def test_every_runner_writes_only_typed_columns(command, flags):
    # A per-N command sweeps two N, so its columns are built from lists of cells.
    doc = {"command": command, **base_doc(M=3, N=50, epsilon_o=0.05, k_o=2.0, trials=8)}
    if command == "markov-verify":
        doc["config"]["N"] = 5
    elif _TABLE[command].sweepable:
        doc["sweep"] = [50, 60]
    defaults = dict(workers=1, mode="idealized", channel=None)
    rows, _, _ = _TABLE[command].runner(
        loads_config(json.dumps(doc)), _Flags(**{**defaults, **flags})
    )
    kinds = {name: rows[name].dtype.kind for name in rows.names}
    assert set(kinds.values()) <= set(_CELL["csv"]) == set(_CELL["json"]), kinds
    for name in rows.names:
        assert rows[name].ndim == 1 and rows[name].flags.c_contiguous, name
        assert len(rows[name]) == len(rows), name
    if command == "convergence":  # the index columns in the smallest unsigned type
        assert [rows[name].dtype for name in ("trial", "group", "t")] == [np.uint8] * 3


@pytest.mark.parametrize("trials", [3, TRIAL_CHUNK + 4], ids=["one-chunk", "two-chunks"])
def test_convergence_columns_are_views_of_the_run(monkeypatch, trials):
    # The trace columns are the run's own arrays, and a one-chunk run's arrays
    # are the training kernel's: the traces are held once, never copied.
    runs, kernels = [], []

    def spy(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(fn(*args, **kwargs))
            return calls[-1]

        return wrapper

    monkeypatch.setattr(cli, "run_convergence", spy(runs, cli.run_convergence))
    monkeypatch.setattr(
        feedbeam.training, "train_ensemble", spy(kernels, feedbeam.training.train_ensemble)
    )
    doc = {"command": "convergence", **base_doc(M=2, N=4, k_o=2.0, trials=trials)}
    rows, _, _ = cli._cmd_convergence(loads_config(json.dumps(doc)), _Flags(1, "idealized", None))
    (res,) = runs
    assert len(kernels) == (1 if trials <= TRIAL_CHUNK else 2)
    for name in ("gain", "aligned_count", "accepted"):
        assert np.shares_memory(rows[name], getattr(res, name)), name
        shared = np.shares_memory(getattr(res, name), getattr(kernels[0], name))
        assert shared == (len(kernels) == 1), name


def test_convergence_artifacts_match_row_by_row_reference(tmp_path):
    config = NetworkConfig(**base_doc(M=2, N=12, trials=7, k_o=3.0)["config"])
    res = run_convergence(config, RandomStream(config.seed, "convergence"))
    assert res.gain.shape[2] == config.block_frames
    columns = ("trial", "group", "t", "gain", "aligned_count", "accepted")
    rows = [
        (
            trial,
            group,
            t,
            float(res.gain[trial, group, t]),
            int(res.aligned_count[trial, group, t]),
            bool(res.accepted[trial, group, t]),
        )
        for trial in range(config.trials)
        for group in range(config.M)
        for t in range(config.block_frames)
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


def test_atomic_write_encodes_slices_across_multibyte_cells(tmp_path, monkeypatch):
    monkeypatch.setattr(artifact, "_WRITE_CHARS", 7)
    pool = ["é", "ß b", "\u2603", "\U0001f600", "idealized", ""]
    cells = [pool[i] for i in np.random.default_rng(3).integers(0, len(pool), 200)]
    text = _csv_text(_table(["text", "code"], [cells, np.arange(200, dtype=np.uint8)]))
    # Slice edges fall next to cells of two, three and four UTF-8 bytes.
    edges = {len(text[k - 1].encode()) for k in range(7, len(text), 7)}
    assert {2, 3, 4} <= edges
    out = tmp_path / "text.csv"
    _atomic_write(str(out), text)
    assert out.read_bytes() == text.encode("utf-8")


def test_atomic_write_writes_a_trace_size_text_in_slices_of_at_most_128_kib(
    tmp_path, monkeypatch
):
    # glibc maps a buffer of more than 128 KiB and hands it back when it is
    # freed, so a write in larger slices faults every slice in anew.
    sizes = []

    class Spy(io.BufferedWriter):
        def write(self, data):
            sizes.append(len(data))
            return super().write(data)

    monkeypatch.setattr(artifact.os, "fdopen", lambda fd, mode: Spy(io.FileIO(fd, mode)))
    text = "127,1,999,-12.345678901234567,57,1\n" * 500_000  # 17 MB, as the benchmark trace
    out = tmp_path / "trace.csv"
    _atomic_write(str(out), text)
    assert len(sizes) > 100 and max(sizes) <= 128 * 1024
    assert out.read_bytes() == text.encode()


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
