"""Timing probes for single layers, run at the end of every traced run.

Each probe times one public function on fixed inputs, so a probe means the
same thing whichever workload ran before it. Short calls are timed in
batches long enough to swamp the clock, and every probe reports the median
of several repeats.
"""

from __future__ import annotations

import statistics
from time import perf_counter


def per_call_us(fn, repeats=7, min_batch_s=0.002):
    """Median microseconds per call, from batches of at least min_batch_s."""
    batch = 1
    while True:
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        if perf_counter() - t0 >= min_batch_s:
            break
        batch *= 2
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - t0) / batch)
    return statistics.median(samples) * 1e6


def once_ms(fn, repeats=3):
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples) * 1e3


def probe_layers(env) -> dict:
    budget, shots, audit, states, cli = env.budget, env.shots, env.audit, env.states, env.cli
    B = budget.BudgetInputs
    base = {"d": 0.01, "r": 1, "n": 100, "mu": 0.15}
    noisy = {**base, "p": 0.5, "D": 2}
    pure_inp, noisy_inp = B(**base), B(**noisy)
    by_c, by_delta = B(**base, c=0.1), B(**base, delta=1e-3)
    noisy_by_delta = B(**noisy, delta=1e-3)
    # The answer is 1500 shots: doubling to 2048, then bisection.
    target = budget.epsilon_noiseless(B(**{**base, "n": 1500})).epsilon
    out = {
        "budget.inputs_us": per_call_us(lambda: B(**base)),
        "budget.epsilon_noiseless_us": per_call_us(lambda: budget.epsilon_noiseless(pure_inp)),
        "budget.epsilon_depolarizing_us": per_call_us(lambda: budget.epsilon_depolarizing(noisy_inp)),
        "budget.epsilon_delta_noiseless_c_us": per_call_us(lambda: budget.epsilon_delta_noiseless(by_c)),
        "budget.epsilon_delta_noiseless_delta_us": per_call_us(lambda: budget.epsilon_delta_noiseless(by_delta)),
        "budget.epsilon_delta_depolarizing_us": per_call_us(lambda: budget.epsilon_delta_depolarizing(noisy_by_delta)),
        "budget.delta_from_c_us": per_call_us(lambda: budget.delta_from_c(0.1, 0.15, 100)),
        "budget.c_from_delta_us": per_call_us(lambda: budget.c_from_delta(1e-3, 0.15, 100)),
        "budget.shots_for_budget_us": per_call_us(lambda: budget.shots_for_budget(target, pure_inp)),
        "shots.log_binomial_pmf.n1e6_ms": once_ms(lambda: shots.log_binomial_pmf(0.15, 10**6)),
        "shots.binomial_distribution.n1e6_ms": once_ms(lambda: shots.binomial_distribution(0.15, 10**6)),
        "shots.sample_means.n1e3_t1e6_ms": once_ms(lambda: shots.sample_means(0.15, 1000, 10**6, 7)),
    }
    for n, label in ((10**4, "n1e4"), (10**6, "n1e6")):
        out[f"audit.exact_epsilon.{label}_ms"] = once_ms(lambda: audit.exact_epsilon(0.16, 0.15, n))
        out[f"audit.hockey_stick_delta.{label}_ms"] = once_ms(lambda: audit.hockey_stick_delta(0.16, 0.15, n, 0.5))
        out[f"audit.dominance_audit.{label}_ms"] = once_ms(lambda: audit.dominance_audit(0.01, 1, n, 0.16, 0.15))
    out["audit.monte_carlo_audit.n1e3_t1e6_ms"] = once_ms(lambda: audit.monte_carlo_audit(0.16, 0.15, 1000, 10**6, 7))

    rho = states.make_density([[0.15, 0.0], [0.0, 0.85]])
    sigma = states.neighbor_state(rho, 0.01)
    channel = states.depolarizing_channel(0.5, 2)
    projector = states.make_projector(states.basis_columns(2, [0]))
    pvm = [projector, states.complement_projector(projector)]
    out["audit.qdp_check_us"] = per_call_us(lambda: audit.qdp_check(rho, sigma, channel, pvm, 0.1, 0.0))
    out["audit.min_expectation_us"] = per_call_us(lambda: audit.min_expectation(rho, sigma, channel, projector))
    out["states.neighbor_state_us"] = per_call_us(lambda: states.neighbor_state(rho, 0.01))
    out["states.depolarizing_channel_us"] = per_call_us(lambda: states.depolarizing_channel(0.5, 2))

    audit_cfg = cli.RunConfig("audit", params={"n": 5000, "d": 0.01}, seed=7)
    out["cli.run_audit.n5000_ms"] = once_ms(lambda: cli.run_audit(audit_cfg))
    figure_path = env.path("probe-figure.csv")

    def all_figures():
        for which in ("fig3", "fig4a", "fig4b", "fig5a", "fig5b"):
            cli.run_figures(which, figure_path)

    out["cli.figures_all_ms"] = once_ms(all_figures, repeats=5)
    points = 10**4
    sweep_cfg = cli.RunConfig("sweep", params={"d": 0.01, "r": 1, "mu": 0.15, "axis": "n"}, grid=(1, points, 1))
    sweep_ms = once_ms(lambda: cli.run_sweep(sweep_cfg))

    def same_points_direct():
        for n in range(1, points + 1):
            budget.epsilon_noiseless(B(d=0.01, r=1, n=n, mu=0.15))

    direct_ms = once_ms(same_points_direct)
    out["cli.run_sweep_per_point_us"] = sweep_ms * 1e3 / points
    # Estimated by subtraction: the same points through the public budget calls.
    out["cli.sweep_overhead_per_point_us"] = (sweep_ms - direct_ms) * 1e3 / points
    return out
