"""Command-line interface for the Szalinski reproduction.

Usage examples::

    szalinski synth model.csg                  # synthesize top-k programs for a flat CSG file
    szalinski flatten design.scad              # flatten an OpenSCAD design to flat CSG
    szalinski table1 --jobs 4 --cache .cache   # Table 1 as a parallel, cache-aware batch run
    szalinski bench gear                       # run one benchmark by name
    szalinski batch a.csg b.csg --jobs 2       # batch-synthesize many flat CSG files
    szalinski serve --socket /tmp/sz.sock --jobs 4 --cache .cache   # resident daemon
    szalinski submit --socket /tmp/sz.sock a.csg --wait             # job via the daemon
    szalinski stats --socket /tmp/sz.sock --percentiles             # latency percentiles
    szalinski trace spans.jsonl --chrome out.json                   # Perfetto conversion

The synthesis knobs (``--epsilon``, ``--top-k``/``--topk``, ``--cost``,
``--rewrite-iterations``, ``--max-enodes``, ``--max-seconds``, ``--rules``)
are global options threaded into :class:`~repro.core.config.SynthesisConfig`
for ``synth`` (alias ``run``), and for the file jobs of ``batch`` and
``submit``.  ``table1`` and ``bench``, and the ``--bench``/``--suite`` jobs
of ``batch`` and ``submit``, deliberately keep the paper's per-benchmark
default configuration so their rows stay comparable to Table 1.  A daemon
takes its configuration from each job, so ``serve`` refuses a knob that is
not at its default.  ``--cache-max-mb`` bounds the disk tier
of the result cache (LRU eviction by entry mtime), and
``--no-semantic-cache`` turns off its semantic (normalized-key) lookup
level so only byte-identical inputs hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.benchsuite.suite import BENCHMARKS, benchmark_names, get_benchmark
from repro.benchsuite.table1 import (
    format_table,
    run_table1_batch,
)
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.core.rules import rules_by_category
from repro.csg.parser import CsgSyntaxError, parse_csg
from repro.csg.pretty import format_openscad_like, format_term
from repro.lang.canon import canonical_term_text
from repro.lang.sexp import SexpError
from repro.scad.flatten import ScadEvalError, flatten_source
from repro.scad.lexer import ScadSyntaxError
from repro.service.cache import ResultCache
from repro.service.job import SynthesisJob, check_timeout
from repro.service.service import SynthesisService
from repro.verify.validate import validate_synthesis


def _rule_categories(text: str) -> tuple:
    """Argparse type for ``--rules``.

    A comma-separated list of categories *replaces* the default set;
    ``+category`` entries *extend* it instead (so ``--rules
    +boolean-expansive`` is the opt-in the ROADMAP describes).  The two
    forms cannot be mixed.
    """
    entries = tuple(part.strip() for part in text.split(",") if part.strip())
    if not entries:
        raise argparse.ArgumentTypeError("expected at least one rule category")
    additive = all(entry.startswith("+") for entry in entries)
    if any(entry.startswith("+") for entry in entries) and not additive:
        raise argparse.ArgumentTypeError(
            "cannot mix replacing (CAT) and extending (+CAT) entries"
        )
    categories = tuple(entry.lstrip("+") for entry in entries)
    known = set(rules_by_category())
    unknown = [category for category in categories if category not in known]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule categories {', '.join(unknown)}; known: {', '.join(sorted(known))}"
        )
    if additive:
        defaults = SynthesisConfig().rule_categories
        return defaults + tuple(c for c in categories if c not in defaults)
    return categories


def _config_from_args(args: argparse.Namespace) -> SynthesisConfig:
    """Thread every exposed knob into a SynthesisConfig."""
    kwargs = dict(
        epsilon=args.epsilon,
        top_k=args.top_k,
        cost_function=args.cost,
        rewrite_iterations=args.rewrite_iterations,
        max_enodes=args.max_enodes,
        max_seconds=args.max_seconds,
    )
    if args.rules is not None:
        kwargs["rule_categories"] = args.rules
    try:
        return SynthesisConfig(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"szalinski: {exc}")


def _check_jobs(args: argparse.Namespace) -> None:
    """Reject a negative ``--jobs`` with a one-line error."""
    if args.jobs < 0:
        raise SystemExit(f"{args.command}: --jobs must be >= 0 (0 = run in-process)")


def _check_timeout(args: argparse.Namespace) -> None:
    """Reject a ``--timeout`` no job could run under with a one-line error."""
    try:
        check_timeout(args.timeout)
    except ValueError as exc:
        raise SystemExit(f"{args.command}: {exc}")


def _print_event(event) -> None:
    print(str(event))


def _build_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """A ResultCache from --cache/--cache-max-mb, or None without --cache."""
    if not args.cache:
        if args.cache_max_mb is not None:
            raise SystemExit("--cache-max-mb requires --cache DIR")
        return None
    max_bytes = None
    if args.cache_max_mb is not None:
        if args.cache_max_mb <= 0:
            raise SystemExit("--cache-max-mb must be positive")
        max_bytes = int(args.cache_max_mb * 1024 * 1024)
    return ResultCache(
        args.cache,
        max_bytes=max_bytes,
        semantic=not getattr(args, "no_semantic_cache", False),
    )


def _write_report(path: Optional[str], payload: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _parse_input(args: argparse.Namespace, text: str):
    """The CSG term in ``text``, or a one-line error naming the input file."""
    try:
        csg = parse_csg(text, strict=False)
        # A non-finite literal parses but has no canonical text, so no run
        # could key or print it (the service answers such a job FAILED).
        canonical_term_text(csg)
    except (CsgSyntaxError, SexpError) as exc:
        raise SystemExit(f"{args.command}: {args.input}: {exc}")
    return csg


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise SystemExit(f"{args.command}: cannot read {args.input}: {exc.strerror or exc}")
    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    name = Path(args.input).stem
    csg = None
    if tracer is not None:
        with tracer.span("job", {"name": name}):
            with tracer.span("parse"):
                csg = _parse_input(args, text)
            result = synthesize(csg, config, tracer=tracer)
            if args.validate:
                report = validate_synthesis(csg, result.output_term(), tracer=tracer)
    else:
        csg = _parse_input(args, text)
        result = synthesize(csg, config)
        if args.validate:
            report = validate_synthesis(csg, result.output_term())
    for candidate in result.candidates:
        print(f"-- rank {candidate.rank} (cost {candidate.cost:g}, loops={candidate.has_loops})")
        print(format_openscad_like(candidate.term))
    if args.validate:
        verdict = f"OK ({report.check})" if report.valid else "FAILED"
        print(f"-- validation: {verdict}")
    if tracer is not None:
        from repro.obs.export import span_lines, write_trace_jsonl

        count = write_trace_jsonl(
            Path(args.trace), span_lines(f"synth:{name}", name, tracer.export())
        )
        print(f"-- trace: {count} span(s) appended to {args.trace}")
    print(
        f"-- {result.seconds:.2f}s, loops {result.loop_summary()}, "
        f"functions {result.function_summary()}, "
        f"size reduction {result.size_reduction() * 100.0:.1f}%"
    )
    return 0


def _cmd_flatten(args: argparse.Namespace) -> int:
    try:
        source = Path(args.input).read_text()
    except OSError as exc:
        raise SystemExit(f"{args.command}: cannot read {args.input}: {exc.strerror or exc}")
    try:
        flat = flatten_source(source)
    except (ScadSyntaxError, ScadEvalError) as exc:
        raise SystemExit(f"{args.command}: {args.input}: {exc}")
    print(format_term(flat))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    _check_jobs(args)
    cache = _build_cache(args)
    mutate = None
    if args.semantic_variants:
        from repro.benchsuite.variants import semantic_variant

        mutate = semantic_variant
    report = run_table1_batch(
        worker_count=args.jobs,
        cache=cache,
        on_event=_print_event if args.progress else None,
        mutate=mutate,
    )
    print(format_table(report.rows, report.failures))
    if cache is not None and report.batch is not None:
        print(
            f"-- cache: {report.batch.cache_hits}/{len(report.batch.results)} jobs served "
            f"({report.batch.exact_hits} exact, {report.batch.semantic_hits} semantic; "
            f"{report.batch.cache['hit_rate'] * 100.0:.0f}% of lookups hit)"
        )
    _write_report(args.report, report.to_dict())
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    benchmark = get_benchmark(args.name)
    report = run_table1_batch([benchmark])
    print(format_table(report.rows, report.failures))
    return 0 if report.ok else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    import traceback

    from repro.service.job import JobResult, JobStatus

    config = _config_from_args(args)
    _check_jobs(args)
    _check_timeout(args)
    jobs = []
    build_failures = []
    for path in args.inputs:
        # A file that cannot be read or parsed is isolated exactly like a
        # job that fails later: one FAILED line, the batch keeps going.
        try:
            jobs.append(SynthesisJob.from_file(path, config, timeout=args.timeout))
        except Exception:
            build_failures.append(
                JobResult(
                    job_id=f"file:{path}",
                    name=Path(path).stem,
                    status=JobStatus.FAILED,
                    error=traceback.format_exc(),
                )
            )
    bench_names = list(args.bench)
    if args.suite:
        bench_names.extend(b.name for b in BENCHMARKS if b.name not in bench_names)
    if bench_names:
        from repro.benchsuite.table1 import benchmark_jobs

        selection = [get_benchmark(name) for name in bench_names]
        bench_jobs, bench_failures = benchmark_jobs(selection, timeout=args.timeout)
        jobs.extend(bench_jobs)
        build_failures.extend(bench_failures)
    if not jobs and not build_failures:
        print("batch: nothing to do (pass CSG files, --bench NAME, or --suite)")
        return 2

    cache = _build_cache(args)
    service = SynthesisService(
        worker_count=args.jobs,
        cache=cache,
        on_event=_print_event,
        trace=bool(args.trace),
    )
    batch = service.run_batch(jobs)
    if args.trace:
        from repro.obs.export import span_lines, write_trace_jsonl

        written = 0
        for result in batch.results:
            if result.trace:
                written += write_trace_jsonl(
                    Path(args.trace),
                    span_lines(result.job_id, result.name, result.trace),
                )
        print(f"-- trace: {written} span(s) appended to {args.trace}")

    failures = build_failures + batch.failed
    for result in batch.results:
        if result.ok:
            best = result.result.best
            origin = "cache" if result.cached else f"{result.seconds:.2f}s"
            print(
                f"ok     {result.name:<20} cost {best.cost:g} "
                f"loops {result.result.loop_summary():<8} [{origin}]"
            )
    for failure in failures:
        print(f"FAILED {failure.name:<20} [{failure.status.value}] {failure.error_summary()}")
    hit_note = (
        f", {batch.cache_hits} from cache "
        f"({batch.exact_hits} exact, {batch.semantic_hits} semantic; "
        f"{batch.cache['hit_rate'] * 100.0:.0f}% hit rate)"
        if cache is not None
        else ""
    )
    print(
        f"-- {len(batch.succeeded)}/{len(jobs) + len(build_failures)} jobs succeeded in "
        f"{batch.seconds:.2f}s with {args.jobs} worker(s){hit_note}"
    )
    payload = batch.to_dict()
    payload["build_failures"] = [failure.to_dict() for failure in build_failures]
    _write_report(args.report, payload)
    return 0 if not failures else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident synthesis daemon until SIGTERM/SIGINT (or a
    client's ``shutdown`` request), then drain and exit cleanly."""
    import signal

    from repro.service.daemon import SynthesisDaemon

    if args.jobs < 1:
        raise SystemExit("serve: --jobs must be >= 1 (the daemon always uses workers)")
    if _config_from_args(args) != SynthesisConfig():
        raise SystemExit(
            "serve: the daemon takes no synthesis knobs; pass them to submit, whose jobs carry them"
        )
    cache = _build_cache(args)
    try:
        daemon = SynthesisDaemon(
            args.socket,
            worker_count=args.jobs,
            cache=cache,
            max_pending=args.max_pending,
            default_timeout=args.timeout,
            trace_jobs=not args.no_job_tracing,
            trace_path=args.trace,
        )
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    daemon.start()

    def _graceful(signum, frame):
        print(f"-- received signal {signum}: draining in-flight jobs", flush=True)
        daemon.request_shutdown()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    print(
        f"-- szalinski daemon serving on {args.socket} "
        f"({args.jobs} worker(s), cache {'at ' + args.cache if args.cache else 'off'}, "
        f"max {args.max_pending} pending)",
        flush=True,
    )
    daemon.serve_forever()
    print("-- daemon stopped", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Talk to a running daemon: submit jobs, or query/stop it."""
    from repro.service.protocol import DaemonClient, DaemonError

    control = [name for name in ("health", "stats", "shutdown") if getattr(args, name)]
    if len(control) > 1:
        raise SystemExit("submit: --health/--stats/--shutdown are mutually exclusive")
    if control and (args.inputs or args.bench or args.suite):
        raise SystemExit(f"submit: --{control[0]} does not take job inputs")
    _check_timeout(args)
    config = _config_from_args(args)

    try:
        client = DaemonClient(args.socket, timeout=args.connect_timeout)
    except OSError as exc:
        raise SystemExit(f"submit: cannot reach daemon at {args.socket}: {exc}")
    with client:
        if control:
            try:
                response = getattr(client, control[0])()
            except DaemonError as exc:
                raise SystemExit(f"submit: daemon error: {exc}")
            print(json.dumps(response, indent=2))
            return 0

        specs = []
        read_failures = []
        for path in args.inputs:
            # An unreadable file is isolated exactly like the batch CLI
            # does it: one failed line, the submission keeps going.
            try:
                text = Path(path).read_text()
            except OSError as exc:
                read_failures.append((Path(path).stem, str(exc)))
                continue
            specs.append({"name": Path(path).stem, "term": text, "config": config.to_dict()})
        bench_names = list(args.bench)
        if args.suite:
            bench_names.extend(b.name for b in BENCHMARKS if b.name not in bench_names)
        if bench_names:
            from repro.benchsuite.table1 import benchmark_jobs
            from repro.lang.canon import canonical_term_text

            selection = [get_benchmark(name) for name in bench_names]
            bench_jobs, bench_failures = benchmark_jobs(selection)
            for job in bench_jobs:
                specs.append(
                    {
                        "name": job.name,
                        "term": canonical_term_text(job.term),
                        "config": job.config.to_dict(),
                    }
                )
            read_failures.extend(
                (failure.name, failure.error_summary()) for failure in bench_failures
            )
        for spec in specs:
            if args.timeout is not None:
                spec["timeout"] = args.timeout
            if args.priority:
                spec["priority"] = args.priority
        if not specs and not read_failures:
            print("submit: nothing to do (pass CSG files, --bench NAME, or --suite)")
            return 2

        results = []
        try:
            if args.wait:
                results = client.submit_and_wait(specs)
            elif specs:
                accepted = client.submit(specs, wait=False)
                print(f"accepted {len(accepted['job_ids'])} job(s): "
                      + ", ".join(accepted["job_ids"]))
        except DaemonError as exc:
            print(f"rejected: {exc}")
            return 3

        failed = list(read_failures)
        for result in results:
            if result["status"] == "succeeded":
                headline = result.get("result") or {}
                origin = (
                    f"cache:{result.get('cache_tier', 'exact')}"
                    if result.get("cached")
                    else f"{result.get('seconds', 0.0):.2f}s"
                )
                cost = headline.get("best_cost")
                print(
                    f"ok     {result['name']:<20} "
                    f"cost {cost:g} [{origin}]" if cost is not None
                    else f"ok     {result['name']:<20} [{origin}]"
                )
            else:
                failed.append((result["name"], result.get("error", result["status"])))
        for name, error in failed:
            print(f"FAILED {name:<20} {error}")
        if args.wait:
            succeeded = sum(1 for r in results if r["status"] == "succeeded")
            hits = sum(1 for r in results if r.get("cached"))
            print(
                f"-- {succeeded}/{len(specs) + len(read_failures)} jobs succeeded, "
                f"{hits} from cache"
            )
        _write_report(
            args.report,
            {
                "socket": args.socket,
                "results": results,
                "read_failures": [
                    {"name": name, "error": error} for name, error in read_failures
                ],
            },
        )
        return 0 if not failed else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Query a running daemon's stats frame; render latency percentiles."""
    from repro.service.protocol import DaemonClient

    try:
        client = DaemonClient(args.socket, timeout=args.connect_timeout)
    except OSError as exc:
        raise SystemExit(f"stats: cannot reach daemon at {args.socket}: {exc}")
    if args.prometheus:
        with client:
            frame = client.metrics()
        print(frame.get("text", ""), end="")
        return 0
    with client:
        frame = client.stats()
    if args.percentiles:
        from repro.obs.histogram import format_latency_table

        print(format_latency_table(frame.get("latency")))
    else:
        print(json.dumps(frame, indent=2))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a JSONL trace file; optionally convert it for Perfetto."""
    from repro.obs.export import read_trace_jsonl, write_chrome_trace
    from repro.obs.histogram import LatencyHistogram, format_latency_table

    try:
        records = read_trace_jsonl(Path(args.input))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"trace: cannot read {args.input}: {exc}")
    jobs = {str(record.get("job_id", "?")) for record in records}
    phases = {}
    root_hist = LatencyHistogram()
    for record in records:
        name = record.get("name", "?")
        phases.setdefault(name, LatencyHistogram()).record(record.get("duration", 0.0))
        if record.get("parent_id") is None:
            root_hist.record(record.get("duration", 0.0))
    snapshot = {
        "jobs": root_hist.to_dict(),
        "phases": {name: hist.to_dict() for name, hist in sorted(phases.items())},
    }
    print(f"{len(records)} span(s) from {len(jobs)} job(s) in {args.input}")
    print(format_latency_table(snapshot))
    if args.chrome:
        events = write_chrome_trace(Path(args.chrome), records)
        print(
            f"-- wrote {events} trace event(s) to {args.chrome} "
            "(open at https://ui.perfetto.dev or chrome://tracing)"
        )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for benchmark in BENCHMARKS:
        structure = "structured" if benchmark.expects_structure else "no structure"
        print(f"{benchmark.name:<16} {benchmark.label():<26} [{benchmark.source}] {structure}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szalinski",
        description="Szalinski reproduction: infer loops and functions in flat CSG models.",
    )
    parser.add_argument("--epsilon", type=float, default=1e-3, help="solver noise tolerance")
    parser.add_argument(
        "--top-k", "--topk", dest="top_k", type=int, default=5,
        help="number of programs to return",
    )
    parser.add_argument(
        "--cost", choices=("ast-size", "reward-loops"), default="ast-size",
        help="extraction cost function",
    )
    parser.add_argument(
        "--rewrite-iterations", type=int, default=SynthesisConfig.rewrite_iterations,
        help="inner saturation iteration limit",
    )
    parser.add_argument(
        "--max-enodes", type=int, default=SynthesisConfig.max_enodes,
        help="e-graph node budget for saturation",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=SynthesisConfig.max_seconds,
        help="saturation wall-clock budget in seconds",
    )
    parser.add_argument(
        "--rules", type=_rule_categories, default=None, metavar="CAT[,CAT...]",
        help=(
            "rewrite-rule categories: a plain list REPLACES the default set, "
            "while +CAT entries EXTEND it (e.g. --rules +boolean-expansive); "
            f"known: {', '.join(sorted(rules_by_category()))}"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    synth = subparsers.add_parser(
        "synth", aliases=["run"],
        help="synthesize programs for a flat CSG file (alias: run)",
    )
    synth.add_argument("input", help="path to an s-expression CSG file")
    synth.add_argument("--validate", action="store_true", help="validate the output by unrolling")
    synth.add_argument(
        "--trace", metavar="FILE",
        help="append per-phase span records (JSONL, one span per line) to FILE",
    )
    synth.set_defaults(func=_cmd_synth)

    flatten = subparsers.add_parser("flatten", help="flatten an OpenSCAD file to flat CSG")
    flatten.add_argument("input", help="path to an OpenSCAD file")
    flatten.set_defaults(func=_cmd_flatten)

    table1 = subparsers.add_parser(
        "table1", help="reproduce Table 1 over the benchmark suite (batch service)"
    )
    table1.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0 = run in-process)",
    )
    table1.add_argument("--cache", help="content-addressed result cache directory")
    table1.add_argument(
        "--cache-max-mb", type=float, default=None,
        help="evict least-recently-used disk cache entries beyond this size",
    )
    table1.add_argument(
        "--no-semantic-cache", action="store_true",
        help="disable the cache's semantic (normalized-key) lookup level; "
        "only byte-identical inputs hit",
    )
    table1.add_argument(
        "--semantic-variants", action="store_true",
        help="run the suite over semantically equal respellings of every "
        "model (renamed parameters, reordered commutative operands, "
        "respelled literals) — the semantic-cache CI check",
    )
    table1.add_argument("--report", help="write a JSON report of the run")
    table1.add_argument(
        "--progress", action="store_true", help="stream per-model progress events"
    )
    table1.set_defaults(func=_cmd_table1)

    bench = subparsers.add_parser("bench", help="run a single benchmark by name")
    bench.add_argument("name", choices=benchmark_names())
    bench.set_defaults(func=_cmd_bench)

    batch = subparsers.add_parser(
        "batch", help="batch-synthesize many flat CSG files and/or benchmarks"
    )
    batch.add_argument("inputs", nargs="*", help="flat CSG s-expression files")
    batch.add_argument(
        "--bench", action="append", default=[], choices=benchmark_names(),
        metavar="NAME", help="add a bundled benchmark to the batch (repeatable)",
    )
    batch.add_argument(
        "--suite", action="store_true", help="add the whole 16-model benchmark suite"
    )
    batch.add_argument(
        "--jobs", type=int, default=0, help="worker processes (0 = run in-process)"
    )
    batch.add_argument("--cache", help="content-addressed result cache directory")
    batch.add_argument(
        "--cache-max-mb", type=float, default=None,
        help="evict least-recently-used disk cache entries beyond this size",
    )
    batch.add_argument(
        "--no-semantic-cache", action="store_true",
        help="disable the cache's semantic (normalized-key) lookup level; "
        "only byte-identical inputs hit",
    )
    batch.add_argument("--timeout", type=float, default=None, help="per-job timeout in seconds")
    batch.add_argument("--report", help="write a JSON batch report")
    batch.add_argument(
        "--trace", metavar="FILE",
        help="run every job with per-phase span tracing and append the spans "
        "to FILE (JSONL, one span per line; convert with `szalinski trace`)",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = subparsers.add_parser(
        "serve",
        help="run the resident synthesis daemon on a Unix-domain socket",
    )
    serve.add_argument(
        "--socket", required=True,
        help="Unix-domain socket path to listen on (created; unlinked on exit)",
    )
    serve.add_argument(
        "--jobs", type=int, default=2,
        help="persistent worker processes shared by all clients",
    )
    serve.add_argument("--cache", help="content-addressed result cache directory")
    serve.add_argument(
        "--cache-max-mb", type=float, default=None,
        help="evict least-recently-used disk cache entries beyond this size",
    )
    serve.add_argument(
        "--no-semantic-cache", action="store_true",
        help="disable the cache's semantic (normalized-key) lookup level; "
        "only byte-identical inputs hit",
    )
    serve.add_argument(
        "--max-pending", type=int, default=256,
        help="admission control: reject submissions once this many jobs are "
        "admitted but unfinished",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="default per-job timeout in seconds for jobs that do not set one",
    )
    serve.add_argument(
        "--trace", metavar="FILE",
        help="append every finished job's span records to FILE "
        "(JSONL, one span per line; convert with `szalinski trace`)",
    )
    serve.add_argument(
        "--no-job-tracing", action="store_true",
        help="disable per-job span tracing (the stats frame then reports "
        "end-to-end latency percentiles only, without per-phase families)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit jobs to (or query/stop) a running daemon",
    )
    submit.add_argument("inputs", nargs="*", help="flat CSG s-expression files")
    submit.add_argument(
        "--socket", required=True, help="Unix-domain socket of the daemon"
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until every job's result frame arrives (and print them)",
    )
    submit.add_argument(
        "--bench", action="append", default=[], choices=benchmark_names(),
        metavar="NAME", help="add a bundled benchmark to the submission (repeatable)",
    )
    submit.add_argument(
        "--suite", action="store_true", help="add the whole 16-model benchmark suite"
    )
    submit.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout in seconds"
    )
    submit.add_argument(
        "--priority", type=int, default=0, help="job priority (higher runs first)"
    )
    submit.add_argument(
        "--connect-timeout", type=float, default=600.0,
        help="socket timeout in seconds for daemon I/O",
    )
    submit.add_argument(
        "--health", action="store_true", help="print the daemon's health snapshot"
    )
    submit.add_argument(
        "--stats", action="store_true", help="print the daemon's full statistics"
    )
    submit.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to drain in-flight jobs and exit",
    )
    submit.add_argument("--report", help="write a JSON report of the submission")
    submit.set_defaults(func=_cmd_submit)

    stats = subparsers.add_parser(
        "stats",
        help="query a running daemon's statistics (latency percentiles and counters)",
    )
    stats.add_argument(
        "--socket", required=True, help="Unix-domain socket of the daemon"
    )
    stats.add_argument(
        "--percentiles", action="store_true",
        help="render the latency section as a per-phase/-model/-tier "
        "p50/p95/p99 table instead of dumping the raw JSON frame",
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="print the metrics families as Prometheus text exposition "
        "(repro_phase_latency_seconds etc.) instead of JSON",
    )
    stats.add_argument(
        "--connect-timeout", type=float, default=60.0,
        help="socket timeout in seconds for daemon I/O",
    )
    stats.set_defaults(func=_cmd_stats)

    trace = subparsers.add_parser(
        "trace",
        help="summarize a JSONL span trace and/or convert it to Chrome "
        "trace_event JSON for Perfetto",
    )
    trace.add_argument("input", help="JSONL trace file (from --trace)")
    trace.add_argument(
        "--chrome", metavar="OUT",
        help="write Chrome trace_event JSON to OUT (open in Perfetto)",
    )
    trace.set_defaults(func=_cmd_trace)

    lister = subparsers.add_parser("list", help="list the benchmark suite")
    lister.set_defaults(func=_cmd_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``szalinski`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
