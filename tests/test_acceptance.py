"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete (a few minutes single-threaded).
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from feedbeam import (
    NetworkConfig,
    RandomStream,
    abs_moment,
    build_markov,
    c_o,
    ensemble_gain_stats,
    epsilon_max,
    estimate_outage,
    expected_interference_power,
    gain_moments_exact,
    interference_scaling_probe,
    k_o,
    outage_bound,
    q_inverse,
    run_convergence,
    train_ensemble,
)
from feedbeam.bounds import _signal_thresholds
from feedbeam.cli import EXIT_OK, main
from feedbeam.protocol import compare_protocols


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _config(**overrides) -> NetworkConfig:
    base = dict(
        M=1,
        N=100,
        P=1.0,
        N_o=1.0,
        T_f=50,
        k_o=10.0,
        epsilon_o=0.1,
        delta=0.5,
        seed=20240,
        estimation_mode="perfect",
        trials=50,
    )
    base.update(overrides)
    return NetworkConfig(**base)


def test_criterion_1_convergence_within_10n_iterations():
    details = []
    ok = True
    for n in (100, 500):
        # A block of 20N + 1 frames, so that frame 20N is its last.
        cfg = _config(N=n, trials=50, k_o=(20 * n + 1) / n)
        res = run_convergence(cfg, RandomStream(cfg.seed, f"acc1/N{n}"))
        ceiling = res.abs_sum.mean()
        r10 = res.gain[:, 0, 10 * n].mean() / ceiling
        r20 = res.gain[:, 0, 20 * n].mean() / ceiling
        ok &= (r10 >= 0.9) and (r20 >= 0.95)
        details.append(f"N={n}: gain/ceiling {r10:.4f} at 10N (>=0.9), {r20:.4f} at 20N (>=0.95)")
    _report(1, "convergence within ~10N iterations", ok, "; ".join(details))


def test_criterion_2_simulator_matches_exact_chain():
    # 3 standard errors, with the true (chain-induced) standard error: the
    # sample variance collapses to zero once a finite sample is fully
    # absorbed, while the exact mean keeps a residual the Monte Carlo
    # resolution cannot see.
    t_list = [1, 10, 50]
    trajectories = 100_000
    worst = 0.0
    ok = True
    for n in (2, 4, 6, 8):
        for k in range(3):
            h = RandomStream(9000 + 10 * n + k, "oracle-h").generator().standard_normal(n)
            model = build_markov(h)
            gaps = np.min(np.diff(np.sort(model.gains)))
            assert gaps > 1e-6, "oracle channel has near-tied states"
            cfg = _config(N=n, trials=trajectories)
            mean = ensemble_gain_stats(h, t_list, cfg, RandomStream(cfg.seed, f"acc2/N{n}/{k}"))
            for idx, t in enumerate(t_list):
                exact, std = gain_moments_exact(model, t)
                se = std / math.sqrt(trajectories)
                dev = abs(mean[idx] - exact) / max(3.0 * se + 1e-12, 1e-300)
                worst = max(worst, dev)
                ok &= abs(mean[idx] - exact) <= 3.0 * se + 1e-12
    _report(
        2,
        "Monte Carlo gain matches exact chain",
        ok,
        f"12 channels x t={t_list}, {trajectories} trajectories, "
        f"worst deviation {worst:.2f} of allowed",
    )


def test_criterion_3_training_budget_reaches_epsilon_level():
    eps = 0.1
    budget = k_o(eps)
    assert budget == pytest.approx(125.0, abs=0.2)
    target_slope = (1 - 2 * eps) * abs_moment()
    details = []
    ok = True
    for n in (50, 100):
        cfg = _config(N=n, k_o=budget, trials=200)
        gains = run_convergence(cfg, RandomStream(cfg.seed, f"acc3/N{n}")).gain[:, 0, -1]
        se = gains.std(ddof=1) / math.sqrt(gains.size)
        floor = n * target_slope - 2.0 * se
        ok &= gains.mean() >= floor
        details.append(f"N={n}: mean gain {gains.mean():.2f} >= {floor:.2f}")
    _report(3, f"k_o({eps})~{budget:.1f} training reaches epsilon level", ok, "; ".join(details))


def test_criterion_4_constant_pipeline():
    checks = []
    # closed-form c_o vs quadrature of the capped density's mean
    for eps in (0.05, 0.1, 0.2, 0.5, 1.0):
        x_o = np.inf if eps == 1.0 else q_inverse((1.0 - eps) / 2.0)
        integral, _ = quad(
            lambda x: 2.0 * x * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x) / eps,
            0.0,
            x_o,
        )
        checks.append(abs(c_o(eps) - integral) < 1e-9)
    exact_full = abs(c_o(1.0) - 2.0 * math.sqrt(2.0 / math.pi)) < 1e-12
    checks.append(exact_full)

    threshold = epsilon_max()
    checks.append(abs(threshold - 0.20036) < 1e-4)
    gap = lambda e: _signal_thresholds(10_000_000, e)[0] - _signal_thresholds(10_000_000, e)[1]
    crossover = brentq(gap, 0.01, 0.4, xtol=1e-12)
    agree = abs(crossover - threshold) < 1e-3
    checks.append(agree)
    # 0.2419 fails the defining inequality: k1 < k2 for all large N there.
    flagged = gap(0.2419) < 0.0 and 0.2419 > threshold
    checks.append(flagged)
    _report(
        4,
        "constant pipeline (c_o quadrature, epsilon ceiling)",
        all(checks),
        f"c_o matches quadrature to 1e-9 on 5 points, c_o(1) exact; "
        f"epsilon_max={threshold:.5f}, crossover solve {crossover:.5f} "
        f"(0.2419 infeasible: {flagged})",
    )


def test_criterion_5_bound_dominates_at_reference_point():
    cfg = _config(M=2, N=200, epsilon_o=0.05, delta=0.5, trials=100_000, P=100.0, N_o=1.0)
    report = outage_bound(cfg.N, cfg)
    res = estimate_outage(
        cfg, report.rate, "idealized", RandomStream(cfg.seed, "acc5"), workers=1
    )
    dominated = res.outage_empirical <= report.bound_finite + 3.0 * res.stderr
    asym_ok = abs(report.bound_asymptotic - 1.70e-3) < 2e-5
    _report(
        5,
        "finite-N bound dominates empirical outage",
        dominated and asym_ok,
        f"empirical {res.outage_empirical:.2e} <= bound {report.bound_finite:.2e} "
        f"+ 3se at rate {report.rate:.4f}; asymptotic {report.bound_asymptotic:.3e} ~ 1.70e-3",
    )


def test_criterion_6_interference_scales_linearly():
    cfg = _config(M=2, k_o=10.0, trials=1000)
    probe = interference_scaling_probe(
        cfg, [50, 100, 200, 400], RandomStream(cfg.seed, "acc6")
    )
    ok = 0.85 <= probe.slope <= 1.15
    _report(
        6,
        "interference power slope in [0.85, 1.15]",
        ok,
        f"log-log slope {probe.slope:.4f} over N=[50,100,200,400], 1000 trials each",
    )


def test_criterion_7_protocol_condition(mc_interference_power):
    # SNR = 10 dB: interference during overlapped training dwarfs the noise.
    cfg = _config(M=4, N=100, P=10.0, N_o=1.0, k_o=10.0, trials=512)
    rep = compare_protocols(expected_interference_power(cfg), cfg, 1.0)
    # Trained networks: each link's mean sigma_I^2 lies within 4 standard errors
    # of i * P, and their mean over links 1 .. M-1 makes the same decision.
    per_trial = mc_interference_power(cfg, RandomStream(cfg.seed, "acc7"))
    est = per_trial.mean(axis=0)
    z = np.abs(est[1:] - np.arange(1, cfg.M) * cfg.P) / (
        per_trial[:, 1:].std(axis=0, ddof=1) / math.sqrt(cfg.trials)
    )
    mc_rep = compare_protocols(est[1:].mean(), cfg, 1.0)
    mc_ok = (
        bool(np.all(z <= 4.0))
        and mc_rep.modified_better == rep.modified_better
        and not rep.modified_better
    )

    gen = RandomStream(cfg.seed, "acc7/grid").generator()
    agree = True
    for _ in range(100):
        grid_cfg = _config(
            M=int(gen.integers(2, 8)),
            N=int(gen.integers(1, 64)),
            T_f=int(gen.integers(1, 100)),
            N_o=float(gen.uniform(0.2, 4.0)),
            k_o=float(gen.uniform(0.5, 30.0)),
        )
        sigma = float(gen.uniform(0.0, 2.0 * grid_cfg.N_o))
        r = compare_protocols(sigma, grid_cfg, float(gen.uniform(0.1, 8.0)))
        agree &= r.modified_better == (r.bits_modified > r.bits_original)
    _report(
        7,
        "overlapped protocol loses at reasonable SNR",
        mc_ok and agree,
        f"sigma_I2/N_o={rep.condition_lhs:.2f} vs threshold {rep.condition_rhs:.2f}, "
        f"modified_better={rep.modified_better}; Monte Carlo z-scores per link "
        f"{np.round(z, 2).tolist()} and modified_better={mc_rep.modified_better}; "
        f"condition==throughput ordering on "
        f"100-point grid: {agree}",
    )


def test_criterion_8_structural_invariants(tmp_path):
    notes = []

    # monotone gain on every trajectory
    cfg = _config(N=64, k_o=8.0, trials=64)
    res = run_convergence(cfg, RandomStream(cfg.seed, "acc8/mono"))
    monotone = bool(np.all(np.diff(res.gain, axis=2) >= 0))
    notes.append(f"monotone={monotone}")

    # absorption permanence
    permanent = True
    for trial in range(10):
        h = RandomStream(cfg.seed, f"acc8/abs/{trial}").generator().standard_normal(6)
        aligned = train_ensemble(
            h[np.newaxis],
            _config(N=6, k_o=50.0),
            RandomStream(cfg.seed, f"acc8/abs-run/{trial}"),
            record_trace=True,
        ).aligned_count[0]
        hits = np.flatnonzero(aligned == 6)
        if hits.size:
            permanent &= bool(np.all(aligned[hits[0]:] == 6))
    notes.append(f"absorption_permanent={permanent}")

    # Markov rows sum to one within 1e-12
    row_err = 0.0
    for n in (2, 5, 8):
        model = build_markov(RandomStream(cfg.seed, f"acc8/mk/{n}").generator().standard_normal(n))
        row_err = max(row_err, float(np.max(np.abs(model.transition.sum(axis=1) - 1.0))))
    rows_ok = row_err < 1e-12
    notes.append(f"row_sum_err={row_err:.1e}")

    # scale equivariance under shared streams
    h = RandomStream(cfg.seed, "acc8/scale").generator().standard_normal(32)
    sc_cfg = _config(N=32, k_o=6.0)
    stream = RandomStream(cfg.seed, "acc8/scale-run")
    r1, r2 = (
        train_ensemble(g[np.newaxis], sc_cfg, stream, record_trace=True) for g in (h, 2.5 * h)
    )
    equivariant = bool(
        np.array_equal(r1.weights, r2.weights)
        and np.allclose(r2.gain, 2.5 * r1.gain, rtol=1e-12)
    )
    notes.append(f"scale_equivariant={equivariant}")

    # determinism of artifacts under fixed seeds at any worker count
    conv_a = run_convergence(_config(N=16, k_o=4.0, trials=600), RandomStream(1, "acc8/w"))
    conv_b = run_convergence(
        _config(N=16, k_o=4.0, trials=600), RandomStream(1, "acc8/w"), workers=3
    )
    out_cfg = _config(M=2, N=50, epsilon_o=0.05, trials=20_000)
    out_a = estimate_outage(out_cfg, 0.5, "idealized", RandomStream(2, "acc8/o"), workers=1)
    out_b = estimate_outage(out_cfg, 0.5, "idealized", RandomStream(2, "acc8/o"), workers=4)
    spec_doc = {
        "command": "bounds",
        "config": dataclasses.asdict(_config(M=2, N=200, epsilon_o=0.05)),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    outs = [str(tmp_path / f"b{i}.json") for i in range(2)]
    assert main(["--config", str(spec_path), "--out", outs[0]]) == EXIT_OK
    assert main(["--config", str(spec_path), "--out", outs[1], "--workers", "2"]) == EXIT_OK
    deterministic = bool(
        np.array_equal(conv_a.gain, conv_b.gain)
        and out_a == out_b
        and open(outs[0], "rb").read() == open(outs[1], "rb").read()
    )
    notes.append(f"deterministic_across_workers={deterministic}")

    ok = monotone and permanent and rows_ok and equivariant and deterministic
    _report(8, "structural invariants", ok, ", ".join(notes))
