import itertools

import pytest

from perfbench import spans


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25).
        names = ["root", "a", "c", "b"]
        starts = [0, 10, 15, 50]
        ends = [100, 40, 25, 90]
        parents = [-1, 0, 1, 0]
        assert spans.self_times(names, starts, ends, parents) == {
            "root": 30, "a": 20, "c": 10, "b": 40,
        }

    def test_same_name_spans_sum(self):
        names = ["run", "kernel", "kernel"]
        starts, ends, parents = [0, 1, 5], [10, 3, 9], [-1, 0, 0]
        assert spans.self_times(names, starts, ends, parents) == {"run": 4, "kernel": 6}

    def test_self_times_add_up_to_the_roots(self):
        recorder = spans.Recorder()

        def leaf():
            return sum(range(2000))

        inner = recorder.wrap("inner", lambda: [leaf() for _ in range(3)])
        leaf_span = recorder.wrap("leaf", leaf)

        def body():
            inner()
            return [leaf_span() for _ in range(2)]

        outer = recorder.wrap("outer", body)
        outer()
        outer()
        assert recorder.names.count("outer") == 2
        assert [recorder.names[p] for p in recorder.parents if p >= 0].count("outer") == 6
        selfs = spans.self_times(
            recorder.names, recorder.starts, recorder.ends, recorder.parents
        )
        assert sum(selfs.values()) == recorder.roots_ns()
        assert all(value >= 0 for value in selfs.values())

    def test_span_ends_even_when_the_call_raises(self):
        recorder = spans.Recorder()

        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            recorder.wrap("boom", boom)()
        assert recorder.ends[0] >= recorder.starts[0] > 0
        assert recorder._stack == []


class TestLayerMetrics:
    def test_child_counts_follow_direct_parents(self):
        recorder = spans.Recorder()
        recorder.names[:] = ["rack.best_candidate", "coscheduling.predict",
                             "coscheduling.predict", "rack.predict_machine",
                             "coscheduling.predict"]
        recorder.parents[:] = [-1, 0, 0, -1, 3]
        assert spans.child_counts(
            recorder, "rack.best_candidate", "coscheduling.predict"
        ) == 2

    def test_installed_restores_every_original(self):
        before = [
            owner.__dict__[attr] for _, owner, attr, _, _ in spans.targets()
        ]
        with spans.Installed(spans.Recorder()):
            during = [owner.__dict__[attr] for _, owner, attr, _, _ in spans.targets()]
        after = [owner.__dict__[attr] for _, owner, attr, _, _ in spans.targets()]
        assert after == before
        assert all(a is not b for a, b in zip(before, during))

    def test_spans_round_trip_through_the_obs_jsonl_format(self, tmp_path):
        from repro.obs.export import read_spans_jsonl, write_spans_jsonl

        recorder = spans.Recorder()
        clock = itertools.count(1)
        recorder.names[:] = ["outer", "inner"]
        recorder.starts[:] = [next(clock), next(clock)]
        recorder.ends[:] = [10, 5]
        recorder.parents[:] = [-1, 0]
        recorder.ops[:] = [7, 7]
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(path, recorder.to_spans("measure"))
        outer, inner = read_spans_jsonl(path)
        assert inner.parent_id == outer.span_id and outer.parent_id is None
        assert (outer.dur_ns, inner.dur_ns) == (9, 3)
        assert inner.attrs == {"op": 7, "phase": "measure"}
