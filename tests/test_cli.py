"""Tests for the ``szalinski`` command-line interface."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.csg.build import translate, union_all, unit
from repro.csg.pretty import format_term


@pytest.fixture
def csg_file(tmp_path):
    flat = union_all([translate(2.0 * (i + 1), 0, 0, unit()) for i in range(4)])
    path = tmp_path / "cubes.csg"
    path.write_text(format_term(flat))
    return path


@pytest.fixture
def scad_file(tmp_path):
    path = tmp_path / "design.scad"
    path.write_text(
        "difference() { cube([30, 10, 5]); for (i = [0:2]) translate([5 + i*10, 5, -1]) cylinder(h=8, r=2); }"
    )
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--epsilon", "0.01", "--top-k", "3", "--cost", "reward-loops", "list"]
        )
        assert args.epsilon == 0.01
        assert args.top_k == 3
        assert args.cost == "reward-loops"

    def test_bench_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "not-a-benchmark"])

    def test_engine_knobs_thread_into_the_config(self):
        from repro.core.config import SynthesisConfig

        args = build_parser().parse_args(
            [
                "--epsilon", "0.01",
                "--top-k", "3",
                "--cost", "reward-loops",
                "--rewrite-iterations", "7",
                "--max-enodes", "12345",
                "--max-seconds", "9.5",
                "--rules", "folds,boolean,boolean-expansive",
                "list",
            ]
        )
        config = _config_from_args(args)
        assert config.epsilon == 0.01
        assert config.top_k == 3
        assert config.cost_function == "reward-loops"
        assert config.rewrite_iterations == 7
        assert config.max_enodes == 12345
        assert config.max_seconds == 9.5
        assert config.rule_categories == ("folds", "boolean", "boolean-expansive")
        # One global option per field: a field no option sets fails here.
        defaults = SynthesisConfig()
        unset = [
            spec.name
            for spec in dataclasses.fields(SynthesisConfig)
            if getattr(config, spec.name) == getattr(defaults, spec.name)
        ]
        assert unset == []

    def test_engine_knob_defaults_match_synthesis_config(self):
        from repro.core.config import SynthesisConfig

        args = build_parser().parse_args(["list"])
        assert _config_from_args(args) == SynthesisConfig()

    def test_rules_rejects_unknown_category(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--rules", "folds,not-a-category", "list"])

    def test_rules_plus_syntax_extends_the_defaults(self):
        from repro.core.config import SynthesisConfig

        args = build_parser().parse_args(["--rules", "+boolean-expansive", "list"])
        config = _config_from_args(args)
        assert config.rule_categories == (
            SynthesisConfig().rule_categories + ("boolean-expansive",)
        )

    def test_rules_rejects_mixed_replace_and_extend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--rules", "folds,+boolean-expansive", "list"])

    def test_batch_options(self):
        args = build_parser().parse_args(
            ["batch", "a.csg", "--bench", "gear", "--jobs", "3",
             "--cache", "/tmp/c", "--timeout", "2.5"]
        )
        assert args.inputs == ["a.csg"]
        assert args.bench == ["gear"]
        assert args.jobs == 3
        assert args.cache == "/tmp/c"
        assert args.timeout == 2.5
        assert args.cache_max_mb is None

    def test_topk_alias_threads_into_the_config(self):
        args = build_parser().parse_args(["--topk", "7", "list"])
        assert args.top_k == 7
        assert _config_from_args(args).top_k == 7

    def test_semantic_cache_flags_parse(self):
        from repro.cli import _build_cache

        args = build_parser().parse_args(
            ["batch", "a.csg", "--cache", "/tmp/c", "--no-semantic-cache"]
        )
        assert args.no_semantic_cache is True
        assert _build_cache(args).semantic is False
        args = build_parser().parse_args(["batch", "a.csg", "--cache", "/tmp/c"])
        assert args.no_semantic_cache is False
        assert _build_cache(args).semantic is True
        args = build_parser().parse_args(
            ["table1", "--semantic-variants", "--no-semantic-cache"]
        )
        assert args.semantic_variants is True and args.no_semantic_cache is True
        assert build_parser().parse_args(["table1"]).semantic_variants is False

    def test_run_is_an_alias_for_synth(self):
        args = build_parser().parse_args(["run", "model.csg"])
        assert args.input == "model.csg"

    def test_cache_max_mb_option(self):
        from repro.cli import _build_cache

        args = build_parser().parse_args(
            ["batch", "a.csg", "--cache", "/tmp/c", "--cache-max-mb", "1.5"]
        )
        assert args.cache_max_mb == 1.5
        cache = _build_cache(args)
        assert cache.max_bytes == int(1.5 * 1024 * 1024)

    def test_cache_max_mb_rejects_non_positive(self):
        from repro.cli import _build_cache

        args = build_parser().parse_args(
            ["batch", "a.csg", "--cache", "/tmp/c", "--cache-max-mb", "0"]
        )
        with pytest.raises(SystemExit):
            _build_cache(args)

    def test_cache_max_mb_requires_cache(self):
        from repro.cli import _build_cache

        args = build_parser().parse_args(["batch", "a.csg", "--cache-max-mb", "8"])
        with pytest.raises(SystemExit, match="requires --cache"):
            _build_cache(args)


class TestCommands:
    def test_synth_prints_candidates(self, csg_file, capsys):
        exit_code = main(["synth", str(csg_file), "--validate"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "rank 1" in captured
        assert "Mapi" in captured
        assert "validation: OK" in captured

    def test_synth_rejects_top_k_zero_before_synthesizing(self, csg_file, capsys):
        # One-line error and a non-zero exit, not a traceback after a run.
        with pytest.raises(SystemExit) as info:
            main(["--top-k", "0", "synth", str(csg_file)])
        message = str(info.value.code)
        assert "top_k" in message and "\n" not in message
        assert capsys.readouterr().out == ""

    def test_synth_reports_loops_and_reduction(self, csg_file, capsys):
        main(["synth", str(csg_file)])
        captured = capsys.readouterr().out
        assert "loops n1,4" in captured
        assert "size reduction" in captured

    def test_flatten_outputs_flat_csg(self, scad_file, capsys):
        exit_code = main(["flatten", str(scad_file)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert captured.strip().startswith("(Diff")
        assert "Cylinder" in captured

    def test_list_names_all_benchmarks(self, capsys):
        exit_code = main(["list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "gear" in captured and "wardrobe" in captured
        assert len([line for line in captured.splitlines() if line.strip()]) == 16

    def test_bench_runs_single_model(self, capsys):
        exit_code = main(["bench", "relay-box"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "relay-box" in captured
        assert "average size reduction" in captured

    def test_bench_isolates_a_crashing_model(self, capsys, monkeypatch):
        import repro.cli as cli_module
        from repro.benchsuite.suite import get_benchmark

        def explode():
            raise RuntimeError("synthetic builder crash")

        broken = dataclasses.replace(get_benchmark("relay-box"), build=explode)
        monkeypatch.setattr(cli_module, "get_benchmark", lambda name: broken)
        exit_code = main(["bench", "relay-box"])
        captured = capsys.readouterr().out
        assert exit_code == 1
        assert "FAILED relay-box" in captured
        assert "synthetic builder crash" in captured
        # The failure is a summary line, not a dumped traceback.
        assert "Traceback" not in captured


class TestBatchCommand:
    @pytest.fixture
    def csg_files(self, tmp_path):
        paths = []
        for n in (3, 4):
            flat = union_all([translate(2.0 * (i + 1), 0, 0, unit()) for i in range(n)])
            path = tmp_path / f"chain{n}.csg"
            path.write_text(format_term(flat))
            paths.append(str(path))
        return paths

    def test_batch_requires_inputs(self, capsys):
        exit_code = main(["batch"])
        assert exit_code == 2
        assert "nothing to do" in capsys.readouterr().out

    def test_batch_runs_files_and_reports(self, csg_files, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        exit_code = main(["batch", *csg_files, "--report", str(report_path)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "ok     chain3" in captured and "ok     chain4" in captured
        assert "2/2 jobs succeeded" in captured
        payload = json.loads(report_path.read_text())
        assert payload["succeeded"] == 2 and payload["failed"] == 0

    def test_batch_warm_cache_serves_every_job(self, csg_files, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", *csg_files, "--cache", cache_dir]) == 0
        capsys.readouterr()
        assert main(["batch", *csg_files, "--cache", cache_dir]) == 0
        captured = capsys.readouterr().out
        assert "[cache-hit]" in captured
        assert "2 from cache (2 exact, 0 semantic; 100% hit rate)" in captured

    def _respelled(self, csg_files, tmp_path):
        """The same designs, spelled differently (variant literals/order)."""
        from repro.benchsuite.variants import semantic_variant
        from repro.lang.term import Term

        paths = []
        for index, original in enumerate(csg_files):
            variant = semantic_variant(Term.parse(Path(original).read_text()))
            path = tmp_path / f"respelled{index}.csg"
            path.write_text(format_term(variant))
            paths.append(str(path))
        return paths

    def test_batch_respelled_inputs_hit_the_semantic_level(
        self, csg_files, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", *csg_files, "--cache", cache_dir]) == 0
        capsys.readouterr()
        respelled = self._respelled(csg_files, tmp_path)
        assert main(["batch", *respelled, "--cache", cache_dir]) == 0
        captured = capsys.readouterr().out
        assert "[cache-hit]" in captured
        assert "2 from cache (0 exact, 2 semantic; 100% hit rate)" in captured

    def test_no_semantic_cache_downgrades_respelled_inputs_to_misses(
        self, csg_files, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", *csg_files, "--cache", cache_dir]) == 0
        capsys.readouterr()
        respelled = self._respelled(csg_files, tmp_path)
        assert (
            main(["batch", *respelled, "--cache", cache_dir, "--no-semantic-cache"])
            == 0
        )
        captured = capsys.readouterr().out
        assert "0 from cache (0 exact, 0 semantic; 0% hit rate)" in captured
        # Exact hits survive the flag: the unmodified files still hit.
        assert main(["batch", *csg_files, "--cache", cache_dir, "--no-semantic-cache"]) == 0
        captured = capsys.readouterr().out
        assert "2 from cache (2 exact, 0 semantic; 100% hit rate)" in captured

    def test_batch_isolates_a_bad_input_file(self, csg_files, tmp_path, capsys):
        bad = tmp_path / "bad.csg"
        bad.write_text("(Union (Cube)")  # unbalanced — fails at parse time
        exit_code = main(["batch", csg_files[0], str(bad)])
        captured = capsys.readouterr().out
        assert exit_code == 1
        assert "ok     chain3" in captured  # the good file still ran
        assert "FAILED bad" in captured
        assert "1/2 jobs succeeded" in captured

    def test_batch_bench_selection(self, capsys):
        exit_code = main(["batch", "--bench", "sander", "--bench", "soldering"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "ok     sander" in captured and "ok     soldering" in captured


class TestArgumentErrors:
    """Arguments no command can run with end it with one line and exit 1."""

    #: A 3-cube row the default configuration folds into a loop.
    THREE_CUBES = format_term(union_all([translate(2.0 * (i + 1), 0, 0, unit()) for i in range(3)]))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table1", "--jobs", "-1"], "table1: --jobs must be >= 0"),
            (["batch", "--bench", "sander", "--jobs", "-1"], "batch: --jobs must be >= 0"),
            (["serve", "--socket", "{tmp}/d.sock", "--max-pending", "0"], "serve: max_pending"),
            (
                ["--top-k", "1", "serve", "--socket", "{tmp}/d.sock", "--jobs", "1"],
                "serve: the daemon takes no synthesis knobs",
            ),
            (["synth", "{tmp}/missing.csg"], "synth: cannot read"),
            (["batch", "--bench", "sander", "--timeout", "-1"], "batch: timeout must be"),
            (["flatten", "{tmp}/missing.scad"], "flatten: cannot read"),
            (["--epsilon", "nan", "synth", "{tmp}/cubes.csg"], "szalinski: epsilon must be"),
            (["--epsilon", "-1", "synth", "{tmp}/cubes.csg"], "szalinski: epsilon must be"),
            (
                ["--rewrite-iterations", "-3", "synth", "{tmp}/cubes.csg"],
                "szalinski: rewrite_iterations must be",
            ),
            (["--max-enodes", "-1", "synth", "{tmp}/cubes.csg"], "szalinski: max_enodes must be"),
            (["--max-seconds", "-1", "synth", "{tmp}/cubes.csg"], "szalinski: max_seconds must be"),
            (["--max-seconds", "nan", "synth", "{tmp}/cubes.csg"], "szalinski: max_seconds must be"),
        ],
    )
    def test_one_line_error_and_exit_1(self, argv, message):
        self._assert_one_line_error(argv, message, files={"cubes.csg": self.THREE_CUBES})

    @pytest.mark.parametrize(
        "source, message",
        [
            ("cube(10;", "flatten: {tmp}/bad.scad: unexpected token ';' (line 1)"),
            ("cube(undefined_var);", "flatten: {tmp}/bad.scad: undefined variable"),
        ],
        ids=["syntax", "evaluation"],
    )
    def test_bad_scad_source_is_one_line_error(self, source, message):
        self._assert_one_line_error(
            ["flatten", "{tmp}/bad.scad"], message, files={"bad.scad": source}
        )

    @pytest.mark.parametrize(
        "source, reason",
        [
            ("(Union Cube", ""),
            ("(Translate inf 0 0 Cube)", "cannot print the non-finite number inf"),
            ("(Translate 1e999 0 0 Cube)", "cannot print the non-finite number inf"),
            ("(Translate nan 0 0 Cube)", "cannot print the non-finite number nan"),
        ],
        ids=["syntax", "inf", "overflow", "nan"],
    )
    def test_unusable_csg_source_is_one_line_error(self, source, reason):
        self._assert_one_line_error(
            ["synth", "{tmp}/bad.csg"], f"synth: {{tmp}}/bad.csg: {reason}",
            files={"bad.csg": source},
        )

    @staticmethod
    def _assert_one_line_error(argv, message, files=None):
        import subprocess
        import sys
        import tempfile

        # AF_UNIX paths are length-limited, so the socket lives under /tmp.
        with tempfile.TemporaryDirectory(prefix="sza.", dir="/tmp") as tdir:
            for name, text in (files or {}).items():
                Path(tdir, name).write_text(text)
            message = message.format(tmp=tdir)
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", *(a.format(tmp=tdir) for a in argv)],
                capture_output=True,
                text=True,
                timeout=120,
            )
        assert done.returncode == 1
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith(message), done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "--bench", "sander"],
            ["submit", "--socket", "/tmp/no-daemon.sock", "--bench", "sander"],
        ],
        ids=["batch", "submit"],
    )
    def test_unrunnable_timeout_is_rejected_before_any_work(self, argv, timeout):
        with pytest.raises(SystemExit, match="timeout must be a finite number"):
            main([*argv, "--timeout", timeout])


class TestDaemonCLI:
    """The ``serve``/``submit`` pair: parser wiring plus one real daemon."""

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--socket", "/tmp/x.sock"])
        assert args.jobs == 2
        assert args.max_pending == 256
        assert args.cache is None and args.timeout is None

    def test_submit_requires_socket(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "a.csg"])

    def test_submit_control_flags_are_exclusive(self):
        args = build_parser().parse_args(
            ["submit", "--socket", "/tmp/x.sock", "--health", "--stats"]
        )
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["submit", "--socket", "/tmp/x.sock", "--health", "--stats"])
        assert args.health and args.stats  # parsing itself is fine

    def test_submit_nothing_to_do(self, capsys):
        import socket as socket_module
        import tempfile

        # A live socket with no jobs requested: the CLI should say so
        # without submitting anything.
        with tempfile.TemporaryDirectory(prefix="szc.", dir="/tmp") as tdir:
            path = f"{tdir}/d.sock"
            listener = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            listener.bind(path)
            listener.listen(1)
            try:
                exit_code = main(["submit", "--socket", path])
            finally:
                listener.close()
        assert exit_code == 2
        assert "nothing to do" in capsys.readouterr().out

    def test_submit_threads_the_global_knobs_into_file_jobs(self, csg_file, tmp_path, capsys):
        """A file job carries the global knobs, as ``batch``'s do: ``--top-k 1``
        answers with one candidate, the default with five."""
        import shutil
        import tempfile

        from repro.service import SynthesisDaemon

        # AF_UNIX paths are length-limited, so the socket lives under /tmp.
        tdir = Path(tempfile.mkdtemp(prefix="szk.", dir="/tmp"))
        daemon = SynthesisDaemon(tdir / "d.sock", worker_count=1)
        daemon.start()
        try:
            candidates = []
            for knobs in (["--top-k", "1"], []):
                report = tmp_path / f"report{len(candidates)}.json"
                argv = [*knobs, "submit", "--socket", str(daemon.socket_path), str(csg_file)]
                assert main([*argv, "--wait", "--report", str(report)]) == 0
                (result,) = json.loads(report.read_text())["results"]
                assert result["status"] == "succeeded" and not result["cached"]
                candidates.append(result["result"]["candidates"])
            assert candidates == [1, 5]
        finally:
            daemon.shutdown(drain=False)
            shutil.rmtree(tdir, ignore_errors=True)
        capsys.readouterr()

    def test_serve_and_submit_end_to_end(self, capsys):
        """Full lifecycle over real processes: serve, submit cold, submit
        warm (cross-process cache hit), health, SIGTERM drain."""
        import json as json_module
        import os
        import signal
        import subprocess
        import sys
        import tempfile
        import time

        with tempfile.TemporaryDirectory(prefix="sze.", dir="/tmp") as tdir:
            sock = f"{tdir}/d.sock"
            model = Path(tdir) / "box.csg"
            model.write_text(
                format_term(
                    union_all(
                        [translate(2.0 * (i + 1), 0, 0, unit()) for i in range(3)]
                    )
                )
            )
            server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--socket", sock, "--jobs", "1", "--cache", f"{tdir}/cache",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=os.environ.copy(),
            )
            try:
                deadline = time.monotonic() + 30
                while not Path(sock).exists():
                    assert time.monotonic() < deadline, "daemon never bound its socket"
                    assert server.poll() is None, server.stdout.read()
                    time.sleep(0.05)

                # The in-process submit command talks to the subprocess daemon.
                assert main(["submit", "--socket", sock, str(model), "--wait"]) == 0
                cold_out = capsys.readouterr().out
                assert "ok     box" in cold_out and "0 from cache" in cold_out

                assert main(["submit", "--socket", sock, str(model), "--wait"]) == 0
                warm_out = capsys.readouterr().out
                assert "cache:exact" in warm_out and "1 from cache" in warm_out

                assert main(["submit", "--socket", sock, "--health"]) == 0
                health = json_module.loads(capsys.readouterr().out)
                assert health["ok"] and health["workers"]["crashes"] == 0
                assert health["jobs"]["exact_hits"] == 1

                server.send_signal(signal.SIGTERM)
                server.wait(timeout=30)
            finally:
                if server.poll() is None:
                    server.kill()
                    server.wait()
            output = server.stdout.read()
            assert server.returncode == 0
            assert "draining" in output and "daemon stopped" in output
            assert not Path(sock).exists()


class TestObservabilityCLI:
    """The `--trace` flags plus the `stats` and `trace` subcommands."""

    def test_stats_requires_socket(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats"])

    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "spans.jsonl"])
        assert args.input == "spans.jsonl"
        assert args.chrome is None

    def test_synth_trace_writes_wellformed_jsonl(self, csg_file, tmp_path, capsys):
        from repro.obs import read_trace_jsonl, validate_spans

        trace = tmp_path / "spans.jsonl"
        exit_code = main(["synth", str(csg_file), "--validate", "--trace", str(trace)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert f"appended to {trace}" in captured

        records = read_trace_jsonl(trace)
        assert validate_spans(records) == []
        names = {record["name"] for record in records}
        assert {"job", "parse", "saturate", "extract", "validate"} <= names
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "job"
        # Every record is stamped with the job identity for multi-job files.
        assert all(r["job_id"] == f"synth:{csg_file.stem}" for r in records)
        assert all(r["model"] == csg_file.stem for r in records)

    def test_synth_without_trace_flag_writes_nothing(self, csg_file, tmp_path, capsys):
        exit_code = main(["synth", str(csg_file)])
        assert exit_code == 0
        assert "trace" not in capsys.readouterr().out
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_batch_trace_covers_every_job(self, csg_file, tmp_path, capsys):
        from repro.obs import read_trace_jsonl, validate_spans

        other = tmp_path / "pair.csg"
        other.write_text(
            format_term(
                union_all([translate(3.0 * (i + 1), 0, 0, unit()) for i in range(3)])
            )
        )
        trace = tmp_path / "batch.jsonl"
        exit_code = main(["batch", str(csg_file), str(other), "--trace", str(trace)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "span(s) appended" in captured

        records = read_trace_jsonl(trace)
        by_job = {}
        for record in records:
            by_job.setdefault(record["job_id"], []).append(record)
        assert len(by_job) == 2
        assert {spans[0]["model"] for spans in by_job.values()} == {
            csg_file.stem, "pair",
        }
        for spans in by_job.values():
            assert validate_spans(spans) == []

    def test_trace_command_summarizes_and_converts(self, csg_file, tmp_path, capsys):
        trace = tmp_path / "spans.jsonl"
        chrome = tmp_path / "chrome.json"
        main(["synth", str(csg_file), "--trace", str(trace)])
        capsys.readouterr()

        exit_code = main(["trace", str(trace), "--chrome", str(chrome)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "from 1 job(s)" in captured
        assert "end-to-end" in captured and "phases" in captured
        assert "saturate" in captured
        assert "perfetto" in captured.lower()

        payload = json.loads(chrome.read_text())
        events = payload["traceEvents"]
        phases = [e for e in events if e["ph"] == "X"]
        assert phases and all(e["dur"] >= 0 and e["ts"] >= 0 for e in phases)
        assert any(e["ph"] == "M" for e in events)

    def test_trace_command_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["trace", str(tmp_path / "nope.jsonl")])

    def test_stats_command_against_live_daemon(self, csg_file, capsys):
        import shutil
        import tempfile

        from repro.service import SynthesisDaemon
        from repro.service.protocol import DaemonClient

        tdir = Path(tempfile.mkdtemp(prefix="szs.", dir="/tmp"))
        daemon = SynthesisDaemon(tdir / "d.sock", worker_count=1)
        daemon.start()
        try:
            with DaemonClient(daemon.socket_path) as client:
                client.submit_and_wait(
                    [{"name": "cubes", "term": csg_file.read_text()}]
                )

            assert main(["stats", "--socket", str(daemon.socket_path)]) == 0
            frame = json.loads(capsys.readouterr().out)
            assert frame["latency"]["jobs"]["count"] == 1
            assert frame["latency"]["phases"]["saturate"]["p95"] > 0.0

            exit_code = main(
                ["stats", "--socket", str(daemon.socket_path), "--percentiles"]
            )
            rendered = capsys.readouterr().out
            assert exit_code == 0
            assert "end-to-end" in rendered
            assert "saturate" in rendered and "extract" in rendered
            assert "cubes" in rendered  # per-model series
        finally:
            daemon.shutdown(drain=False)
            shutil.rmtree(tdir, ignore_errors=True)

    def test_stats_unreachable_socket_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach daemon"):
            main(
                ["stats", "--socket", str(tmp_path / "missing.sock"),
                 "--connect-timeout", "1"]
            )
