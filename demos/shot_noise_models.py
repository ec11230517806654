"""Shot noise two ways: the exact binomial law and its normal surrogate.

Shows the outcome distribution of n projective shots, the normal model the
closed-form budgets are built on, the log-likelihood ratio between two
hypotheses, and deterministic counter-based sampling.
"""

import numpy as np

from shotdp import binomial_distribution, log_likelihood_ratio, sample_means


def main():
    mu, n = 0.15, 10
    probs = binomial_distribution(mu, n)
    variance = mu * (1 - mu) / n  # of the normal surrogate N(mu, mu(1-mu)/n)
    print(f"Outcome law of n={n} shots at mu={mu}")
    print(f"  normal surrogate: mean {mu}, std {variance ** 0.5:.6f}")
    print("  k   exact P(k)     normal density x 1/n")
    grid = np.arange(n + 1) / n
    dens = np.exp(-((grid - mu) ** 2) / (2 * variance)) / np.sqrt(2 * np.pi * variance)
    for k in range(n + 1):
        print(f"  {k:2d}  {probs[k]:.6e}   {dens[k] / n:.6e}")
    print()

    mu0, mu1 = 0.25, 0.15
    print(f"Log-likelihood ratio of the two normal models ({mu0} vs {mu1}, n={n})")
    for x in (0.0, 0.1, 0.2, 0.25, 0.4, 0.66):
        print(f"  llr({x:4.2f}) = {log_likelihood_ratio(x, mu0, mu1, n):9.4f}")
    print("  the ratio is a parabola in x; its endpoint values drive the budgets.\n")

    print("Counter-based sampling: one seed, one reproducible stream")
    a = sample_means(mu, n, trials=8, seed=7)
    b = sample_means(mu, n, trials=8, seed=7)
    c = sample_means(mu, n, trials=8, seed=8)
    print(f"  seed 7:       {a}")
    print(f"  seed 7 again: {b}")
    print(f"  seed 8:       {c}")
    print(f"  identical reruns: {np.array_equal(a, b)}")

    trials = 200000
    x = sample_means(mu, n, trials, seed=42)
    print(f"\n  empirical mean over {trials} trials: {x.mean():.6f} (exact {mu})")
    counts = np.bincount(np.rint(x * n).astype(int), minlength=n + 1)
    worst = np.max(np.abs(counts / trials - probs))
    print(f"  worst histogram deviation from the exact law: {worst:.2e}")


if __name__ == "__main__":
    main()
