"""Reference formulas that more than one test module holds the program to.

Each is written plainly, as the code was before the solver loop checked
each array once: ``test_check_parity.py`` compares the public functions
with them, and ``test_iteration_kernel.py`` builds its reference step from
them. One copy here keeps the two from drifting apart.
"""

import numpy as np


def old_dirl2_subproblem(x, grad, u, beta, lam):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(np.isnan(u)):
        raise ValueError("weights must be nonnegative")
    return np.where(np.isinf(u), 0.0, (x - grad / beta) / (1.0 + (2.0 * lam / beta) * u))


def old_perturbed_value(algorithm, problem, x, eps):
    """F(x, eps) with DIRL1's radius |x| + eps or DIRL2's hypot(x, eps)."""
    x = problem.check_vector(x)
    eps = problem._check_eps(x, eps)
    value = problem.smooth.value(x)  # before the radius: its warnings come first
    t = np.abs(x) + eps if algorithm == "DIRL1" else np.hypot(x, eps)
    return value + problem.penalty_value(t)
