"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestListing:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("X5-2", "X4-2", "X3-2", "X2-4"):
            assert name in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "MD" in out and "equake" in out


class TestDescribe:
    def test_describe_machine(self, capsys):
        assert main(["describe-machine", "TESTBOX"]) == 0
        out = capsys.readouterr().out
        assert "core rate" in out and "DRAM" in out

    def test_describe_workload(self, capsys):
        assert main(["describe-workload", "TESTBOX", "EP"]) == 0
        out = capsys.readouterr().out
        assert "parallel fraction" in out
        assert "profiling cost" in out

    def test_unknown_machine_is_an_error(self, capsys):
        assert main(["describe-machine", "X99"]) == 1
        assert "error:" in capsys.readouterr().err


class TestPredict:
    def test_predict_spread(self, capsys):
        assert main(["predict", "TESTBOX", "EP", "--threads", "8"]) == 0
        out = capsys.readouterr().out
        assert "predicted speedup" in out

    def test_predict_packed(self, capsys):
        assert main(["predict", "TESTBOX", "EP", "--threads", "4", "--packed"]) == 0
        assert "predicted" in capsys.readouterr().out

    def test_too_many_threads_is_an_error(self, capsys):
        assert main(["predict", "TESTBOX", "EP", "--threads", "99"]) == 1
        assert "error:" in capsys.readouterr().err


class TestOptimize:
    def test_optimize(self, capsys):
        assert main(["optimize", "TESTBOX", "Swim", "--max-placements", "60"]) == 0
        out = capsys.readouterr().out
        assert "best predicted" in out
        assert "right-sized" in out

    def test_optimize_traced_writes_valid_trace_and_metrics(self, capsys, tmp_path):
        from repro import obs
        from repro.obs.export import validate_chrome_trace_file

        trace_path = tmp_path / "trace.json"
        try:
            assert main([
                "optimize", "TESTBOX", "Swim", "--max-placements", "60",
                "--trace-out", str(trace_path), "--metrics",
            ]) == 0
        finally:
            obs.disable()
            obs.reset()
        out = capsys.readouterr().out
        assert "metrics summary:" in out
        assert "search.requests" in out
        assert "predictor.iterations" in out
        counts = validate_chrome_trace_file(trace_path)
        assert counts["spans"] > 0
        import json

        names = {
            e["name"]
            for e in json.loads(trace_path.read_text())["traceEvents"]
        }
        # The acceptance triad: predictor iteration, cache and strategy
        # phases all present in one optimize trace.
        assert {"predictor.iteration", "search.cache", "search.strategy"} <= names

    def test_surrogate_strategy_without_model_names_the_session(self, capsys):
        assert main([
            "--noise", "0", "optimize", "TESTBOX", "MD", "--strategy", "surrogate",
        ]) == 1
        err = capsys.readouterr().err
        assert "optimize TESTBOX MD:" in err
        assert "--surrogate-model" in err

    @pytest.mark.parametrize("strategy", ["greedy", "sweep"])
    def test_strategy_prints_every_search_stat(self, capsys, strategy):
        from repro.search.stats import SearchStats

        assert main([
            "--noise", "0", "optimize", "TESTBOX", "MD", "--strategy", strategy,
            "--stats",
        ]) == 0
        out = capsys.readouterr().out
        stats = out[out.index("search stats:"):]
        for label, _ in SearchStats().report():
            assert f"  {label}:" in stats, label

    def test_warm_start_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--noise", "0", "optimize", "TESTBOX", "MD", "--warm-start"])
        assert exc.value.code == 2
        assert "--warm-start" in capsys.readouterr().err


class TestCoschedule:
    def test_coschedule_two_workloads(self, capsys):
        assert main(["coschedule", "TESTBOX", "EP", "Swim"]) == 0
        out = capsys.readouterr().out
        assert "EP" in out and "Swim" in out
        assert "bottleneck" in out

    def test_too_many_workloads_for_sockets(self, capsys):
        assert main(["coschedule", "TESTBOX", "EP", "Swim", "MD"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRack:
    def test_rack_scheduling(self, capsys):
        assert main(["rack", "TESTBOX", "EP", "Swim", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "node-0" in out and "makespan" in out

    def test_rack_with_validation(self, capsys):
        assert main(
            ["rack", "TESTBOX", "EP", "MD", "--nodes", "2", "--validate"]
        ) == 0
        out = capsys.readouterr().out
        assert "measured makespan" in out


class TestExplain:
    def test_explain_mentions_bottleneck(self, capsys):
        assert main(["explain", "TESTBOX", "Swim", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "Amdahl ceiling" in out
        assert "most utilised resources" in out


class TestFit:
    def test_fit_from_timings(self, capsys):
        code = main(["fit", "TESTBOX", "1:10.0", "2:5.3", "4:2.9", "8:1.8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rms relative error" in out
        assert "fitted:" in out

    def test_malformed_observation(self, capsys):
        assert main(["fit", "TESTBOX", "banana"]) == 1
        assert "THREADS:SECONDS" in capsys.readouterr().err


class TestTimeline:
    def test_timeline_gantt(self, capsys):
        code = main(
            ["timeline", "TESTBOX", "EP", "MD", "--nodes", "2", "--stagger", "1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "#" in out  # gantt bars
        assert "makespan" in out
        assert "queueing delay" in out

    def test_makespan_is_the_online_replay(self, capsys):
        """The printed makespan is an explicit ``OnlineScheduler``
        replay of the same staggered arrivals."""
        from repro.core.machine_desc import generate_machine_description
        from repro.core.workload_desc import WorkloadDescriptionGenerator
        from repro.hardware import machines
        from repro.online import OnlineScheduler, replay_trace
        from repro.rack import Rack, RackMachine
        from repro.sim.noise import NoiseModel
        from repro.workloads import catalog

        names = ["EP", "MD", "CG"]
        code = main(
            ["--noise", "0", "timeline", "TESTBOX", *names, "--nodes", "2",
             "--stagger", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out

        machine = machines.get("TESTBOX")
        noise = NoiseModel(sigma=0.0)
        md = generate_machine_description(machine, noise=noise)
        generator = WorkloadDescriptionGenerator(machine, md, noise=noise)
        rack = Rack(
            machines=(RackMachine("node-0", machine, md),
                      RackMachine("node-1", machine, md))
        )
        trace = replay_trace(
            [{"workload": n, "arrival_s": i * 0.5, "job": n}
             for i, n in enumerate(names)],
            {n: generator.generate(catalog.get(n)) for n in names},
        )
        timeline = OnlineScheduler(rack).run(trace).timeline
        assert f"makespan {timeline.makespan_s:.2f}s," in out
        assert (
            f"mean queueing delay {timeline.mean_queueing_delay_s:.2f}s" in out
        )


class TestEvaluate:
    def test_evaluate_summary(self, capsys, tmp_path):
        svg = tmp_path / "scatter.svg"
        code = main(
            ["evaluate", "TESTBOX", "MD", "--max-placements", "30",
             "--svg", str(svg)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rank correlation" in out
        assert "placement regret" in out
        assert svg.exists() and svg.read_text().startswith("<svg")


class TestProfile:
    def test_profile_from_span_log(self, capsys, tmp_path):
        from repro import obs

        spans = tmp_path / "spans.jsonl"
        try:
            assert main([
                "optimize", "TESTBOX", "Swim", "--max-placements", "40",
                "--trace-out", str(spans),
            ]) == 0
        finally:
            obs.disable()
            obs.reset()
        capsys.readouterr()
        svg = tmp_path / "flame.svg"
        folded = tmp_path / "folded.txt"
        assert main([
            "profile", str(spans), "--top", "5",
            "--svg", str(svg), "--folded", str(folded),
        ]) == 0
        out = capsys.readouterr().out
        assert "self ms" in out
        assert "sim.fixed_point" in out
        assert "repro-flamegraph" in svg.read_text()
        lines = folded.read_text().splitlines()
        assert lines and all(" " in line for line in lines)

    def test_profile_empty_log_fails_cleanly(self, capsys, tmp_path):
        empty = tmp_path / "spans.jsonl"
        empty.write_text("")
        assert main(["profile", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().out

    def test_missing_span_log_is_a_one_line_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.jsonl"
        assert main(["profile", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {missing}: No such file or directory\n"

    def test_svg_in_missing_directory_is_a_one_line_error(self, capsys, tmp_path):
        from repro import obs
        from repro.obs.export import write_spans_jsonl

        spans = tmp_path / "spans.jsonl"
        obs.enable()
        try:
            with obs.span("cli.test"):
                pass
            write_spans_jsonl(spans, obs.tracer().spans())
        finally:
            obs.disable()
            obs.reset()
        svg = tmp_path / "no-such-dir" / "flame.svg"
        assert main(["profile", str(spans), "--svg", str(svg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {svg}: No such file or directory\n"


class TestDashboard:
    def test_dashboard_acceptance(self, capsys, tmp_path):
        """One self-contained page: >=3 sparklines, percentile rows, and
        a flamegraph whose root equals the session wall time within 1%."""
        import re

        from repro import obs

        out_file = tmp_path / "dash.html"
        try:
            assert main([
                "dashboard", "TESTBOX", "EP", "--out", str(out_file),
                "--jobs", "8", "--max-placements", "40",
                "--sample-window", "10",
            ]) == 0
            session = [
                s for s in obs.tracer().spans()
                if s.name == "dashboard.session"
            ]
        finally:
            obs.disable()
            obs.reset()
        html = out_file.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert html.count('class="sparkline"') >= 3
        assert "<th>p50</th><th>p90</th><th>p99</th>" in html
        assert len(session) == 1
        root_ns = int(re.search(r'data-root-ns="(\d+)"', html).group(1))
        assert root_ns == pytest.approx(session[0].dur_ns, rel=0.01)

    def test_online_dashboard_out(self, capsys, tmp_path):
        out_file = tmp_path / "online.html"
        assert main([
            "online", "TESTBOX", "EP", "Swim", "--jobs", "10",
            "--dashboard-out", str(out_file), "--sample-window", "20",
        ]) == 0
        html = out_file.read_text()
        assert html.count('class="sparkline"') >= 3
        assert "online.slowdown" in html
        assert "wrote dashboard" in capsys.readouterr().out


class TestOnline:
    ARGS = ["online", "TESTBOX", "EP", "Swim", "--jobs", "30"]

    def test_prints_run_and_stats_summaries(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "online run (predicted-slowdown):" in out
        assert "jobs completed: 30" in out
        assert "online scheduler stats:" in out

    def test_migrate_exits_zero(self, capsys):
        assert main(self.ARGS + ["--migrate"]) == 0
        assert "jobs completed: 30" in capsys.readouterr().out

    def test_json_record_names_the_policy(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        assert main(self.ARGS + ["--policy", "load-balance", "--json", str(path)]) == 0
        record = json.loads(path.read_text())
        assert record["policy"] == "load-balance"
        assert record["n_jobs"] == 30
        assert f"wrote run record to {path}" in capsys.readouterr().out


class TestNoiseFlag:
    def test_noise_flag_changes_measurements(self, capsys):
        main(["--noise", "0.0", "describe-machine", "TESTBOX"])
        quiet = capsys.readouterr().out
        main(["--noise", "0.03", "describe-machine", "TESTBOX"])
        noisy = capsys.readouterr().out
        assert quiet != noisy
