"""The command-line interface."""

import argparse
import hashlib
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_present(self):
        parser = build_parser()
        for argv in (["figure1"], ["figure3"], ["table1"], ["demo"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_option(self):
        args = build_parser().parse_args(["figure3", "--scale", "0.5"])
        assert args.scale == 0.5

    def test_usage_line_lists_every_experiment(self):
        import repro.cli
        from repro.experiments import experiment_names

        listed = re.search(r"\[--experiment ([^\]]+)\]", repro.cli.__doc__)
        assert tuple("".join(listed[1].split()).split("|")) == (
            experiment_names()
        )


#: sha256 of each subcommand's ``--help`` text at 80 columns.
HELP_PINS = {
    "figure1": "91661dbf8b136c6e741850af1ac64c05050a0ff7a18705e08c5439ac9d77b107",
    "run": "85d5bdc9a62e6da05c7c966fb7dc41390af96576112922599e630045c61b0c40",
    "figure3": "5ad772e558a89cb17778d459a8f5d92e7607e37f055e08da00788c179a2de12a",
    "table1": "3f0a968c0972f659e0b9a8074bc825db86ef11249fa73874e3a8a23d11eaf676",
    "sweep": "4d3cc9dd8ac73124a5a426969082865f92a443709e09354e4ee1871620f4280f",
    "demo": "6ed9ceebbb1991227567176a80a6fdfbd7767138d6af34a370bcc0b1bf1e64e5",
    "inspect": "3e7b192352dcc1334ab9540fcba3bdd27a98877b5cb25f2a0b340b6a8ad0df23",
    "perf": "9c873722fe025449eb05a8b5b226383dbe8cbf79be41ed6b5b93009be3b852b3",
    "perf pairs": "73b6d783487eac1aea093754ee66c48b7a4f38dee0d6332d5694de54c79d3b3f",
    "serve": "82fe270977bd679273364c2dad35c23c080baec0a3c1a1df5a3f517d31c50eee",
    "serve-bench": "cddf31d986291f6e445bc33132d3e9e3f995fd999f159e8f3cb5d646f031697c",
    "trace-record": "3fc68215696f2f1cef99048f499b5bffea3efd020b79090e748b6611a01fbb95",
    "trace-replay": "2ca5bbb299f216bffe45040cfd227ff6c13477a6b9d0ef16daadefbd07632aa3",
    "trace-analyze": "ccb1b1b73b5cd2a0f69e6858726be8aff82a2d3990b99882602ba71d3ba413f9",
}


def _subparsers(parser, prefix=()):
    """``(command words, parser)`` for every subcommand, nested ones
    (``perf pairs``) included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield " ".join((*prefix, name)), sub
                yield from _subparsers(sub, (*prefix, name))


class TestHelpPins:
    """Every subcommand's ``--help`` text, byte for byte."""

    def test_every_subcommand_is_pinned(self):
        assert [name for name, _ in _subparsers(build_parser())] == (
            list(HELP_PINS)
        )

    @pytest.mark.parametrize("name", list(HELP_PINS))
    def test_help_text_is_pinned(self, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        text = dict(_subparsers(build_parser()))[name].format_help()
        assert hashlib.sha256(text.encode()).hexdigest() == HELP_PINS[name]


class TestSweepFlags:
    """A sweep flag no run could honour is a usage error (exit 2) on
    every command that takes it, not a traceback or a silent no-limit."""

    def _rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        assert exit_.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figure3", "table1", "sweep"])
    def test_zero_jobs(self, capsys, command):
        self._rejected(capsys, [command, "--jobs", "0"], "--jobs")

    def test_negative_retries(self, capsys):
        self._rejected(capsys, ["sweep", "--retries", "-1"], "--retries")

    @pytest.mark.parametrize("command", ["figure3", "table1", "sweep"])
    def test_negative_timeout(self, capsys, command):
        self._rejected(capsys, [command, "--timeout", "-1"], "--timeout")

    @pytest.mark.parametrize("command", ["figure3", "table1", "sweep"])
    def test_zero_timeout(self, capsys, command):
        # setitimer(0) disarms the timer: 0 would mean "no limit".
        self._rejected(capsys, [command, "--timeout", "0"], "--timeout")

    def test_valid_values_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "1", "--retries", "0", "--timeout", "0.5"]
        )
        assert (args.jobs, args.retries, args.timeout) == (1, 0, 0.5)


class TestPositiveSizes:
    """A ``--scale`` or ``--memory-mb`` of zero or less sizes no machine
    or workload: a usage error (exit 2) on every command that takes it,
    not a traceback or a grid of failed points."""

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--workload", "thrasher", "--scale", "0"], "--scale"),
        (["run", "--workload", "thrasher", "--scale", "-0.5"], "--scale"),
        (["run", "--workload", "thrasher", "--memory-mb", "0"],
         "--memory-mb"),
        (["figure3", "--scale", "0"], "--scale"),
        (["table1", "--scale", "-1"], "--scale"),
        (["sweep", "--scale", "0"], "--scale"),
        (["demo", "--scale", "0"], "--scale"),
        (["inspect", "--scale", "0"], "--scale"),
        (["trace-record", "--workload", "thrasher", "--out", "t.trace",
          "--scale", "0"], "--scale"),
        (["trace-replay", "t.trace", "--workload", "thrasher",
          "--scale", "0"], "--scale"),
        (["trace-replay", "t.trace", "--workload", "thrasher",
          "--memory-mb", "-6"], "--memory-mb"),
    ])
    def test_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"argument {flag}: must be > 0" in capsys.readouterr().err

    def test_small_positive_values_parse(self):
        args = build_parser().parse_args(
            ["run", "--workload", "thrasher", "--scale", "0.01",
             "--memory-mb", "0.5"])
        assert (args.scale, args.memory_mb) == (0.01, 0.5)


class TestFailureReport:
    """figure3, table1 and sweep report a point that failed after its
    retries the same way: one ``FAILED key: error`` line each, exit 1."""

    @pytest.mark.parametrize("argv, runner, keys", [
        (["figure3", "--mode", "rw"], "run_figure3_point", "figure3/rw/"),
        (["table1", "--rows", "compare"], "run_table1_point", "table1/"),
        (["sweep", "--experiment", "table1", "--retries", "0"],
         "run_table1_point", "table1/"),
    ])
    def test_failed_point(self, capsys, monkeypatch, argv, runner, keys):
        import repro.experiments

        def broken(spec):
            raise RuntimeError("broken runner")

        monkeypatch.setattr(repro.experiments, runner, broken)
        assert main(argv + ["--scale", "0.05", "--jobs", "1"]) == 1
        out, err = capsys.readouterr()
        failed = re.findall(r"^FAILED (\S+): (.*)$", err, re.M)
        assert failed
        for key, error in failed:
            assert key.startswith(keys) and "broken runner" in error
        assert "Table 1" not in out and "Figure 3" not in out


class TestExecution:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(a)" in out
        assert "Figure 1(b)" in out

    def test_demo(self, capsys):
        assert main(["demo", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "unmodified system" in out
        assert "compression cache" in out

    def test_figure3_small(self, capsys):
        assert main(["figure3", "--scale", "0.05", "--mode", "rw"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3 (rw)" in out

    def test_table1_single_row(self, capsys):
        assert main(["table1", "--scale", "0.04", "--rows", "compare"]) == 0
        out = capsys.readouterr().out
        assert "compare" in out

    def test_table1_unknown_row(self, capsys):
        assert main(["table1", "--rows", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown rows" in err

    def test_inspect(self, capsys):
        assert main(["inspect", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "compression cache:" in out
        assert "legend" in out

    def test_perf_profile_writes_report(self, capsys, tmp_path, monkeypatch):
        # Keep the run small: profile one tiny workload, skip the sim
        # throughput pass, shrink the kernel corpus.
        import repro.perf as perf

        monkeypatch.setattr(
            perf, "bench_compression",
            lambda *a, **k: {"aggregate": {}, "kinds": {}},
        )
        monkeypatch.setattr(perf, "bench_micro", lambda **k: {"reps": 1})
        real_profile_sim = perf.profile_sim
        monkeypatch.setattr(
            perf, "profile_sim",
            lambda scale, top_n: real_profile_sim(
                scale=0.02, top_n=top_n, workloads=["thrasher"]
            ),
        )
        assert main([
            "perf", "--quick", "--skip-sim", "--profile", "7",
            "--out-dir", str(tmp_path),
        ]) == 0
        report = (tmp_path / "BENCH_profile.txt").read_text()
        assert "per-subsystem tottime" in report
        assert "top 7 functions by cumulative time" in report
        assert "repro.vm" in report
        out = capsys.readouterr().out
        assert "BENCH_profile.txt" in out

    def test_perf_profile_flag_parses_bare(self):
        args = build_parser().parse_args(["perf", "--profile"])
        assert args.profile == 25
        args = build_parser().parse_args(["perf"])
        assert args.profile is None

    def test_trace_record_and_analyze(self, capsys, tmp_path):
        path = str(tmp_path / "t.trace")
        assert main([
            "trace-record", "--workload", "thrasher", "--out", path,
            "--scale", "0.02", "--max-events", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        assert main(["trace-analyze", path, "--frames", "8,64"]) == 0
        out = capsys.readouterr().out
        assert "working-set knee" in out
        assert "64 frames" in out

    def test_trace_record_unknown_workload(self, capsys, tmp_path):
        assert main([
            "trace-record", "--workload", "doom", "--out",
            str(tmp_path / "x"),
        ]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_trace_record_unwritable_out(self, capsys, tmp_path):
        assert main([
            "trace-record", "--workload", "thrasher", "--scale", "0.02",
            "--max-events", "50",
            "--out", str(tmp_path / "no" / "such" / "dir" / "t.trace"),
        ]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_trace_analyze_missing_file(self, capsys, tmp_path):
        assert main([
            "trace-analyze", str(tmp_path / "nonexistent.trace"),
        ]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "usage:" in err

    def test_trace_analyze_bad_header(self, capsys, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("this is not a trace\n")
        assert main(["trace-analyze", str(path)]) == 2
        assert "not a valid trace" in capsys.readouterr().err

    def test_trace_analyze_truncated(self, capsys, tmp_path):
        path = tmp_path / "trunc.trace"
        path.write_text("#repro-trace v1 5\n0 1 r\n")
        assert main(["trace-analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not a valid trace" in err
        assert "truncated" in err


class TestSweepCommand:
    ARGS = ["sweep", "--experiment", "figure3", "--mode", "rw",
            "--scale", "0.04"]

    def _digest(self, capsys, extra):
        assert main(self.ARGS + ["--digest"] + extra) == 0
        return capsys.readouterr().out.strip()

    def test_parallel_digest_equals_serial(self, capsys):
        serial = self._digest(capsys, ["--jobs", "1"])
        parallel = self._digest(capsys, ["--jobs", "2"])
        assert serial == parallel
        assert len(serial) == 64  # sha256 hex

    def test_resume_writes_checkpoint(self, capsys, tmp_path):
        ck = tmp_path / "ck.jsonl"
        first = self._digest(capsys, ["--resume", str(ck)])
        assert ck.exists() and ck.read_text().strip()
        size = ck.stat().st_size
        second = self._digest(capsys, ["--resume", str(ck)])
        assert first == second
        assert ck.stat().st_size == size  # nothing recomputed

    def test_plain_output_lists_points(self, capsys):
        assert main(self.ARGS + ["--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "figure3/rw" in out
        assert "computed" in out

    def test_jobs_option_on_figure3(self, capsys):
        assert main(["figure3", "--scale", "0.04", "--mode", "rw",
                     "--jobs", "2"]) == 0
        assert "Figure 3 (rw)" in capsys.readouterr().out


class TestRunCommand:
    def test_plain_run(self, capsys):
        assert main(["run", "--workload", "thrasher", "--scale",
                     "0.03"]) == 0
        out = capsys.readouterr().out
        assert "elapsed" in out
        assert "injected_faults" not in out  # no plan, no fault report

    def test_unknown_workload(self, capsys):
        assert main(["run", "--workload", "nonesuch"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_missing_plan_file(self, capsys):
        assert main(["run", "--workload", "thrasher",
                     "--faults", "/no/such/plan.json"]) == 2
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_invalid_plan_file(self, capsys, tmp_path):
        bad = tmp_path / "plan.json"
        bad.write_text('{"devcie": {}}')
        assert main(["run", "--workload", "thrasher",
                     "--faults", str(bad)]) == 2
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_fault_plan_reports_counters(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"seed": 3, "device": {"read_error_rate": 0.05,'
                        ' "write_error_rate": 0.05}}')
        assert main(["run", "--workload", "compare", "--scale", "0.03",
                     "--drain", "--faults", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "injected_faults" in out

    def test_digest_deterministic_under_faults(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"seed": 8, "fragments":'
                        ' {"corrupt_read_rate": 0.05}}')
        argv = ["run", "--workload", "compare", "--scale", "0.03",
                "--drain", "--digest", "--faults", str(plan)]
        assert main(argv) == 0
        first = capsys.readouterr().out.strip()
        assert main(argv) == 0
        second = capsys.readouterr().out.strip()
        assert first == second
        assert len(first) == 64

    def test_json_output(self, capsys):
        import json as json_mod

        assert main(["run", "--workload", "thrasher", "--scale", "0.03",
                     "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert "elapsed_seconds" in payload
        assert "resilience" not in payload  # no plan installed

    def test_json_tier_report_for_explicit_tiers_only(self, capsys):
        """Per-tier occupancy/hit-rate telemetry rides on --json for
        explicit-tier runs, and never leaks into default-layout output
        or the digestable payload."""
        import json as json_mod

        assert main(["run", "--workload", "thrasher", "--scale", "0.03",
                     "--json"]) == 0
        assert "tier_report" not in json_mod.loads(
            capsys.readouterr().out
        )
        assert main(["run", "--workload", "thrasher", "--scale", "0.03",
                     "--tiers", "two-tier", "--json"]) == 0
        report = json_mod.loads(capsys.readouterr().out)["tier_report"]
        names = [t["name"] for t in report["tiers"]]
        assert names == ["l1", "l2"]
        capped = report["tiers"][0]
        assert capped["frames"] >= 0
        assert capped["max_frames"] is not None
        assert 0.0 <= capped["occupancy"] <= 1.0
        assert "windowed_miss_fraction" in report

    def test_tier_digest_ignores_the_tier_report(self, capsys):
        """--digest hashes RunResult.as_dict() alone, so adding the CLI
        tier report must not move any pinned digest."""
        argv = ["run", "--workload", "thrasher", "--scale", "0.03",
                "--tiers", "two-tier", "--digest"]
        assert main(argv) == 0
        digest = capsys.readouterr().out.strip()
        assert len(digest) == 64

    def test_control_flag_runs_and_reports(self, capsys):
        import json as json_mod

        assert main(["run", "--workload", "thrasher", "--scale", "0.03",
                     "--tiers", "two-tier", "--control", "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["control"]["ticks"] > 0


class TestLfsCommands:
    def test_lfs_run(self, capsys):
        assert main(["run", "--workload", "thrasher", "--scale", "0.03",
                     "--store", "lfs"]) == 0
        assert "elapsed" in capsys.readouterr().out

    def test_killed_digest_equals_uninterrupted(self, capsys):
        # --kill implies synchronous appends, so the uninterrupted
        # reference must run with --store-sync to match.
        base = ["run", "--workload", "thrasher", "--scale", "0.05",
                "--store", "lfs", "--store-sync", "--digest"]
        assert main(base) == 0
        reference = capsys.readouterr().out.strip()
        assert len(reference) == 64
        assert main(base + ["--kill", "append:2:0.5"]) == 0
        assert capsys.readouterr().out.strip() == reference

    def test_kill_requires_lfs_store(self, capsys):
        assert main(["run", "--workload", "thrasher",
                     "--kill", "append:1"]) == 2
        assert "--kill requires --store lfs" in capsys.readouterr().err

    def test_invalid_kill_spec(self, capsys):
        assert main(["run", "--workload", "thrasher", "--store", "lfs",
                     "--kill", "nowhere:1"]) == 2
        assert "kill" in capsys.readouterr().err

    def test_lfs_sweep_digest_deterministic(self, capsys):
        argv = ["sweep", "--experiment", "lfs", "--scale", "0.04",
                "--digest", "--jobs", "1"]
        assert main(argv) == 0
        first = capsys.readouterr().out.strip()
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == first
        assert len(first) == 64

    def test_lfs_sweep_plain_output(self, capsys):
        assert main(["sweep", "--experiment", "lfs", "--scale", "0.04",
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "lfs/rz57" in out
        assert "batching win" in out


class TestDocumentedCommandLines:
    """CI cannot run in every sandbox; its command lines can at least be
    parsed.  Every ``python -m repro.cli ...`` / ``compression-cache
    ...`` invocation in the workflow and the README must be one
    ``build_parser()`` accepts."""

    ROOT = Path(__file__).resolve().parent.parent
    START = re.compile(
        r"(?:^|[\s(])(?:python3? -m repro\.cli|compression-cache)\s+(\S.*)$"
    )
    #: Sample values for the shell substitutions the files use.
    SAMPLES = {"workload": "thrasher", "plan": "disk-flaky",
               "kill": "append:1:0.5", "experiment": "figure3",
               "checkpoint": "--resume ck.jsonl"}

    @classmethod
    def command_lines(cls, path):
        """``(line number, argv)`` per invocation: continuation lines
        joined (a trailing backslash, or the ``--option`` lines of a
        folded YAML scalar), substitutions replaced, and the shell's
        own syntax (pipes, redirections, comments) cut off."""
        lines = (cls.ROOT / path).read_text().splitlines()
        found = []
        for number, line in enumerate(lines, 1):
            stripped = line.strip()
            if stripped.startswith(("#", "`")) or "`compression-cache" in line:
                continue  # prose and comments, not invocations
            match = cls.START.search(line)
            if match is None:
                continue
            text, following = match[1], number
            while True:
                more = text.endswith("\\")
                text = text.rstrip("\\").rstrip()
                nxt = (lines[following].strip()
                       if following < len(lines) else "")
                if not (more or nxt.startswith("--")) or cls.START.search(nxt):
                    break
                text, following = f"{text} {nxt}", following + 1
            text = text.replace("$(nproc)", "2")
            text = re.sub(r"\$\{?(\w+)\}?",
                          lambda m: cls.SAMPLES[m[1]], text)
            text = re.split(r"\s[|>]\s|\)|;", text)[0]
            found.append((number, shlex.split(text, comments=True)))
        return found

    @pytest.mark.parametrize("path, at_least", [
        (".github/workflows/ci.yml", 25), ("README.md", 23),
    ])
    def test_every_documented_invocation_parses(self, path, at_least):
        parser = build_parser()
        commands = self.command_lines(path)
        assert len(commands) >= at_least, (
            f"{path}: only {len(commands)} invocations found"
        )
        for number, argv in commands:
            try:
                args = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{path}:{number}: build_parser() rejects "
                            f"{' '.join(argv)}")
            assert args.command == argv[0]

    def test_extraction_joins_and_cuts(self, tmp_path, monkeypatch):
        (tmp_path / "sample.yml").write_text(
            "        run: >\n"
            "          PYTHONPATH=src python -m repro.cli perf\n"
            "          --quick --check benchmarks/perf_baseline.json\n"
            "      - run: |\n"
            "          got=$(PYTHONPATH=src python -m repro.cli run \\\n"
            '            --workload "$workload" --kill "$kill" --digest)\n'
            "          compression-cache sweep --jobs \"$(nproc)\" \\\n"
            "              # a comment line ends it\n"
            "          python -m repro.cli trace-analyze t.bt | tee out\n"
            "      # python -m repro.cli run --nonsense\n"
        )
        monkeypatch.setattr(type(self), "ROOT", tmp_path)
        assert [argv for _, argv in self.command_lines("sample.yml")] == [
            ["perf", "--quick", "--check", "benchmarks/perf_baseline.json"],
            ["run", "--workload", "thrasher", "--kill", "append:1:0.5",
             "--digest"],
            ["sweep", "--jobs", "2"],
            ["trace-analyze", "t.bt"],
        ]
