"""The sparse contention solve is bit-identical to the dense oracle.

``repro.sim.engine._solve_rates`` works on each model's non-zero
(thread, resource, coefficient) triples and finds water levels with a
scan of the sorted wants; ``tests/reference_sim.py`` keeps the dense
matrix solver it replaced.  Hypothesis draws 1-3-job co-runs on every
catalog machine -- catalog workloads under every memory policy, an I/O
workload where the machine has a NIC, and the profiler's background
stressors -- and checks:

* ``_solve_rates`` returns exactly the oracle's rates at any
  utilisation in [1e-6, 1];
* ``simulate`` returns exactly the same results with the oracle swapped
  in (times, rates, counters, resource loads, outer iterations);
* ``simulate`` returns a ``SimResult`` equal under ``==`` to the oracle
  ``simulate``, which re-solves and re-times in every outer pass: the
  skip of those passes when nothing saturates at utilisation 1 changes
  no bit.  Two pinned cases cover a co-run that never saturates (the
  skip runs) and one that saturates only at utilisation 1 (it must
  not).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import machines
from repro.sim import engine
from repro.sim.demand import DemandModel, JobSpecOnMachine
from repro.sim.engine import Job, SimOptions, simulate
from repro.sim.noise import NO_NOISE
from repro.sim.stressors import background_filler, cpu_stressor
from repro.workloads import catalog
from repro.workloads.spec import MemoryPolicy, WorkloadSpec
from tests import reference_sim

QUIET = SimOptions(noise=NO_NOISE)
NOISY = SimOptions()

IO_WORKLOAD = WorkloadSpec(
    name="io-server", work_ginstr=60.0, cpi=0.6, l1_bpi=5.0,
    dram_bpi=0.8, io_bpi=1.5, working_set_mib=4.0,
    parallel_fraction=0.99, load_balance=0.8,
)


def _oracle(model, utilisation, opts):
    """The oracle in the engine solver's calling convention."""
    return reference_sim._solve_rates(model, utilisation, opts), 0


@st.composite
def _spec(draw, machine):
    kinds = ["catalog", "cpu_stressor", "background_filler"]
    if machine.nic_gbs > 0:
        kinds.append("io")
    kind = draw(st.sampled_from(kinds))
    if kind == "cpu_stressor":
        return cpu_stressor()
    if kind == "background_filler":
        return background_filler()
    spec = IO_WORKLOAD if kind == "io" else catalog.get(
        draw(st.sampled_from(catalog.all_names()))
    )
    sockets = range(machine.topology.n_sockets)
    policy = draw(
        st.one_of(
            st.just(MemoryPolicy.interleave_active()),
            st.just(MemoryPolicy.local()),
            st.lists(st.sampled_from(sockets), min_size=1, unique=True).map(
                lambda nodes: MemoryPolicy.bind(*nodes)
            ),
        )
    )
    return spec.with_(memory_policy=policy)


@st.composite
def co_runs(draw):
    """(machine, jobs): 1-3 jobs pinned to disjoint hardware threads."""
    machine = machines.get(draw(st.sampled_from(machines.names())))
    n_hw = machine.topology.n_hw_threads
    order = draw(st.permutations(range(n_hw)))
    n_jobs = draw(st.integers(min_value=1, max_value=3))
    jobs, start = [], 0
    for j in range(n_jobs):
        room = n_hw - start - (n_jobs - 1 - j)
        k = draw(st.integers(min_value=1, max_value=min(room, 24)))
        jobs.append(Job(draw(_spec(machine)), tuple(order[start:start + k])))
        start += k
    return machine, jobs


def _model(machine, jobs):
    return DemandModel(
        machine, [JobSpecOnMachine(job.spec, job.hw_thread_ids) for job in jobs]
    )


def _assert_solve_matches(model, utilisation):
    rates, _ = engine._solve_rates(model, utilisation, QUIET)
    expected = reference_sim._solve_rates(model, utilisation, QUIET)
    assert np.array_equal(rates, expected)


def _assert_simulate_matches(machine, jobs, opts):
    got = simulate(machine, jobs, opts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_solve_rates", _oracle)
        want = simulate(machine, jobs, opts)
    assert got.outer_iterations == want.outer_iterations
    assert got.resource_loads == want.resource_loads
    assert got.frequencies_ghz == want.frequencies_ghz
    for mine, theirs in zip(got.job_results, want.job_results):
        assert mine.elapsed_s == theirs.elapsed_s
        assert mine.thread_rates == theirs.thread_rates
        assert mine.counters == theirs.counters


@settings(max_examples=60, deadline=None)
@given(run=co_runs(), data=st.data())
def test_solve_rates_matches_oracle(run, data):
    machine, jobs = run
    model = _model(machine, jobs)
    utilisation = data.draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=model.n_threads,
            max_size=model.n_threads,
        )
    )
    _assert_solve_matches(model, np.array(utilisation))


@settings(max_examples=25, deadline=None)
@given(run=co_runs(), opts=st.sampled_from([QUIET, NOISY]))
def test_simulate_matches_oracle(run, opts):
    machine, jobs = run
    _assert_simulate_matches(machine, jobs, opts)


class TestPinnedCases:
    def test_saturated_resource_with_tied_wants(self):
        """Identical threads on one DRAM node: every want ties."""
        testbox = machines.get("TESTBOX")
        swim = catalog.get("Swim").with_(memory_policy=MemoryPolicy.bind(0))
        jobs = [Job(swim, (0, 1, 2, 3))]
        model = _model(testbox, jobs)
        rates, _ = engine._solve_rates(model, np.ones(model.n_threads), QUIET)
        dram = model.resource_index[("dram", 0)]
        pairs = model.resource_pairs[dram]
        assert len(pairs) == 4
        traffic = rates[model.pair_thread[list(pairs)]] * model.pair_coeff[list(pairs)]
        assert traffic.sum() == pytest.approx(model.capacities[dram])
        assert len(set(rates.tolist())) == 1  # the tie holds to the last bit
        _assert_solve_matches(model, np.ones(model.n_threads))
        _assert_solve_matches(model, np.array([1.0, 0.5, 0.5, 1e-6]))
        _assert_simulate_matches(testbox, jobs, QUIET)

    def test_nothing_saturates(self):
        """A lone compute thread: no resource binds, rates are the limits."""
        fig3 = machines.get("FIG3")
        spec = WorkloadSpec(name="light", work_ginstr=10.0, cpi=1.0)
        jobs = [Job(spec, (0,))]
        model = _model(fig3, jobs)
        rates, iterations = engine._solve_rates(model, np.ones(1), QUIET)
        assert np.array_equal(rates, model.limits)
        assert iterations == 1
        _assert_solve_matches(model, np.ones(1))
        _assert_simulate_matches(fig3, jobs, QUIET)


@settings(max_examples=40, deadline=None)
@given(run=co_runs(), opts=st.sampled_from([QUIET, NOISY]))
def test_simulate_equals_the_reference_simulate(run, opts):
    machine, jobs = run
    assert simulate(machine, jobs, opts) == reference_sim.simulate(machine, jobs, opts)


def _solves(monkeypatch):
    """Count the engine's contention solves."""
    calls = []
    solve = engine._solve_rates

    def counted(model, utilisation, opts):
        calls.append(1)
        return solve(model, utilisation, opts)

    monkeypatch.setattr(engine, "_solve_rates", counted)
    return calls


class TestOuterPasses:
    def test_co_run_that_never_saturates(self, monkeypatch):
        """Nothing saturates at utilisation 1: one solve, reused."""
        testbox = machines.get("TESTBOX")
        jobs = [Job(catalog.get("MD"), (0, 1, 2, 3)), Job(catalog.get("EP"), (4, 5))]
        assert not _model(testbox, jobs).saturates
        want = reference_sim.simulate(testbox, jobs, QUIET)
        calls = _solves(monkeypatch)
        got = simulate(testbox, jobs, QUIET)
        assert got.outer_iterations > 2
        assert len(calls) == 1
        assert got == want

    def test_saturates_only_at_full_utilisation(self, monkeypatch):
        """A resource saturates at utilisation 1 but not at the fixed
        point: every pass must re-solve, or the first pass's throttled
        rates would stand."""
        testbox = machines.get("TESTBOX")
        jobs = [Job(catalog.get("Apsi"), (0, 1, 2, 3))]
        assert _model(testbox, jobs).saturates
        want = reference_sim.simulate(testbox, jobs, QUIET)
        calls = _solves(monkeypatch)
        got = simulate(testbox, jobs, QUIET)
        caps = got.resource_capacities
        assert all(
            load <= caps[key] * (1.0 + 1e-9) for key, load in got.resource_loads.items()
        )
        assert got.outer_iterations > 2
        assert len(calls) == got.outer_iterations
        assert got == want
