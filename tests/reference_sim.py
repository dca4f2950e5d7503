"""The golden oracle for the simulator's inner contention solve.

The dense solver that ``repro.sim.engine._solve_rates`` replaced,
kept verbatim: every iteration multiplies the full threads x resources
coefficient matrix and runs a NumPy max-min water-fill per saturated
resource.  The sparse solver in ``src`` must return the same rates
bit for bit, and ``simulate`` must return the same results with this
oracle swapped in (``tests/properties/test_sim_oracle.py``).

The oracle returns the rates alone; the engine's solver also reports
its inner iteration count.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.demand import DemandModel
from repro.sim.engine import SimOptions


def _water_fill(wants: np.ndarray, capacity: float) -> np.ndarray:
    """Max-min fair allocation of *capacity* among traffic *wants*.

    Users wanting less than their fair share receive their want in
    full; the remainder is split evenly among the heavier users.  This
    is how real memory controllers and links behave: a trickle of
    requests into a saturated resource is served nearly unharmed.

    Closed form: with wants sorted ascending, the fully-served users
    form a prefix; everyone else gets the water level
    ``(capacity - sum(prefix)) / #rest``.
    """
    order = np.argsort(wants)
    w = wants[order]
    n = w.size
    prefix = np.concatenate(([0.0], np.cumsum(w[:-1])))
    levels = (capacity - prefix) / (n - np.arange(n))
    below = w <= levels
    if below.all():
        return wants.copy()  # capacity covers every want
    first_heavy = int(np.argmin(below))
    level = levels[first_heavy]
    grants_sorted = np.minimum(w, level)
    grants = np.empty_like(wants)
    grants[order] = grants_sorted
    return grants


def _solve_rates(model: DemandModel, utilisation: np.ndarray, opts: SimOptions) -> np.ndarray:
    """Inner fixed point: instantaneous per-thread rates (Ginstr/s).

    Each saturated resource distributes its capacity max-min fairly
    over its users' current traffic wants; a thread's rate is its
    standalone limit capped by the tightest grant among its resources.
    Geometric damping drives the recursion to a stable allocation.
    """
    limits = model.limits
    if limits.size == 0:
        return limits.copy()
    if np.any(limits <= 0):
        raise SimulationError("thread with non-positive standalone rate limit")
    caps = model.capacities
    coeffs = model.coeffs
    rate = limits.copy()
    for _ in range(opts.inner_max_iters):
        scaled = np.maximum(utilisation, 1e-9)
        traffic = (scaled * rate)[:, np.newaxis] * coeffs
        loads = traffic.sum(axis=0)
        bounds = np.full_like(rate, np.inf)
        for r in np.nonzero(loads > caps * (1.0 + 1e-9))[0]:
            users = np.nonzero(coeffs[:, r] > 0)[0]
            grants = _water_fill(traffic[users, r], caps[r])
            user_bounds = grants / (scaled[users] * coeffs[users, r])
            np.minimum.at(bounds, users, user_bounds)
        target = np.minimum(limits, np.maximum(bounds, 1e-12))
        new_rate = np.sqrt(rate * target)
        change = np.max(np.abs(new_rate - rate) / np.maximum(rate, 1e-12))
        rate = new_rate
        if change < opts.inner_tolerance:
            break
    return rate
