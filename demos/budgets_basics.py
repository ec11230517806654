"""Closed-form privacy budgets at the library's reference operating point.

Walks the four budget families: pure epsilon with and without depolarizing
noise, then the (epsilon, delta) pair driven by a frequency cutoff, and
finishes with the inverse question: how many shots fit a target budget.
"""

from shotdp import (
    BudgetInputs,
    epsilon_delta_depolarizing,
    epsilon_delta_noiseless,
    epsilon_depolarizing,
    epsilon_noiseless,
    shots_for_budget,
)


def show(label, report):
    warn = f"  [{', '.join(report.warnings)}]" if report.warnings else ""
    print(f"  {label:34s} eps = {report.epsilon:12.6f}  delta = {report.delta:.6g}{warn}")


def main():
    print("Pure budgets at d=0.1, r=1, n=10, mu=0.15")
    base = dict(d=0.1, r=1, n=10, mu=0.15)
    show("noiseless", epsilon_noiseless(BudgetInputs(**base)))
    show("depolarizing p=0.5, D=2", epsilon_depolarizing(BudgetInputs(p=0.5, D=2, **base)))
    print("  more hardware noise means a smaller budget: privacy for free.\n")

    print("Tail budgets at n=5 with cutoff c=0.3")
    tail = dict(d=0.1, r=1, n=5, mu=0.15, c=0.3)
    show("noiseless (eps, delta)", epsilon_delta_noiseless(BudgetInputs(**tail)))
    show("depolarizing p=0.8, D=2", epsilon_delta_depolarizing(BudgetInputs(p=0.8, D=2, **tail)))
    print()

    print("The same budgets can be driven by delta instead of c")
    by_delta = epsilon_delta_noiseless(BudgetInputs(d=0.1, r=1, n=5, mu=0.15, delta=0.0241323357))
    print(f"  delta = 0.0241 recovers c = {by_delta.inputs.c:.6f} and eps = {by_delta.epsilon:.6f}\n")

    print("Validity is reported, never silently corrected")
    flagged = epsilon_delta_noiseless(BudgetInputs(d=0.1, r=1, n=10, mu=0.15, c=0.3))
    show("n=10 pushes n*d*r past 1 - mu", flagged)
    print()

    print("Largest shot count within a target budget (noiseless, d=0.1, mu=0.15)")
    inp = BudgetInputs(d=0.1, r=1, n=1, mu=0.15)
    for target in (5.0, 6.4216, 20.0):
        n = shots_for_budget(target, inp)
        eps = epsilon_noiseless(BudgetInputs(d=0.1, r=1, n=n, mu=0.15)).epsilon
        print(f"  target {target:8.4f}  ->  n = {n:4d}  (eps(n) = {eps:.4f})")


if __name__ == "__main__":
    main()
