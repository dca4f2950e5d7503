"""The simulator's inner-iteration telemetry.

With obs enabled, each ``simulate`` call observes the total inner
iterations of its contention solves in the ``sim.inner_iterations``
histogram and puts the same total on its ``sim.fixed_point`` span.
With obs off it records nothing, and its results never depend on
whether obs is on.
"""

from repro import obs
from repro.hardware import machines
from repro.sim import engine
from repro.sim.engine import Job, SimOptions, simulate
from repro.sim.noise import NO_NOISE
from repro.sim.stressors import cpu_stressor
from repro.workloads import catalog

QUIET = SimOptions(noise=NO_NOISE)


def _jobs():
    return [
        Job(catalog.get("Swim"), (0, 1, 2, 3, 4)),
        Job(cpu_stressor(), (8,)),
    ]


def _fingerprint(result):
    return (
        result.outer_iterations,
        result.resource_loads,
        result.frequencies_ghz,
        [(jr.elapsed_s, jr.thread_rates, jr.counters) for jr in result.job_results],
    )


def _counting_solver(monkeypatch):
    """Wrap the solver to total the inner iterations it reports."""
    totals = []
    solve = engine._solve_rates

    def counted(model, utilisation, opts):
        rates, iterations = solve(model, utilisation, opts)
        totals.append(iterations)
        return rates, iterations

    monkeypatch.setattr(engine, "_solve_rates", counted)
    return totals


def test_results_bit_identical_with_obs_on_and_off():
    testbox = machines.get("TESTBOX")
    off = simulate(testbox, _jobs(), QUIET)
    obs.enable()
    on = simulate(testbox, _jobs(), QUIET)
    assert _fingerprint(on) == _fingerprint(off)


def test_enabled_records_total_inner_iterations(monkeypatch):
    testbox = machines.get("TESTBOX")
    totals = _counting_solver(monkeypatch)
    obs.enable()
    simulate(testbox, _jobs(), QUIET)
    histogram = obs.metrics().data()["histograms"]["sim.inner_iterations"]
    assert histogram["count"] == 1
    assert histogram["total"] == sum(totals) > 0
    (fixed_point,) = [s for s in obs.tracer().spans() if s.name == "sim.fixed_point"]
    assert fixed_point.attrs["inner_iterations"] == sum(totals)


def test_disabled_records_nothing():
    simulate(machines.get("TESTBOX"), _jobs(), QUIET)
    assert "sim.inner_iterations" not in obs.metrics().data()["histograms"]
    assert obs.tracer().spans() == []
