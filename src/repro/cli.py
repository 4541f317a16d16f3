"""Command-line interface: the validation flow as shell commands.

A production release of this system is driven from build scripts, so the
pipeline is exposed as subcommands::

    python -m repro enumerate --fill-words 2 --jobs 4 --cache-dir .repro-cache
    python -m repro tours     --fill-words 2 --cache-dir .repro-cache --limit 400
    python -m repro validate  --fill-words 2 --cache-dir .repro-cache [--bug 5]
    python -m repro campaign  --fill-words 2 --jobs 4
    python -m repro translate design.v --top arbiter
    python -m repro murphi    model.m
    python -m repro errata
    python -m repro report    run.json [--curve curve.csv]

Every command prints a compact human-readable report; ``--graph-out``
writes the enumerated state graph as JSON.  ``--jobs`` shards
enumeration and trace simulation across worker processes; ``--cache-dir``
persists the expensive pipeline artifacts (state graph, tours, traces) so
repeat runs skip straight to simulation, and ``--no-cache`` forces a
rebuild that refreshes the stored entry.  ``enumerate`` and ``tours`` run
the pipeline's first phases, so a graph that ``enumerate --cache-dir D``
stores is the one ``tours --cache-dir D`` reuses.

Observability: ``--trace-out`` writes a Chrome ``trace_event`` file (open
in chrome://tracing or Perfetto; use a ``.jsonl`` suffix to stream the raw
event log instead), ``--metrics-out`` writes the unified machine-readable
:class:`~repro.obs.report.RunReport` JSON (metrics + per-phase timings +
stats), ``--log-level`` enables structured stderr logging, and ``repro
report`` renders a saved run JSON back into the human tables, including
Fig 4.1-style coverage-curve data.

Performance observability: a background :class:`ResourceSampler` adds
RSS / CPU / frontier-size counter tracks to any ``--trace-out`` trace
(``--sample-interval`` tunes the tick, 0 disables); ``--profile-out``
arms the opt-in sampling profiler and writes a collapsed-stack profile
(render with flamegraph.pl / speedscope); ``--heartbeat-out`` streams
machine-readable JSONL progress heartbeats while a live status line is
rewritten on stderr whenever it is a terminal (``--progress`` forces it
on, ``--no-progress`` off).  Performance is measured outside the CLI,
by ``python3 bench/run.py`` (see ``bench/README.md``).

Resilience: ``--checkpoint-dir`` snapshots enumeration at wave boundaries
(``--checkpoint-every`` controls the cadence) and ``--resume`` continues
an interrupted run from the newest snapshot to a bit-identical graph;
``repro checkpoints DIR`` lists, verifies, inspects and prunes a
checkpoint store.  ``--wall-budget`` / ``--memory-budget`` /
``--state-budget`` bound the run: on exhaustion the partial result is
still written and reported, flagged as truncated.

Exit codes (stable; scripts and CI may rely on them):

- ``0`` -- success: the run completed and found what it should have found
  (for ``validate --bug N``, "success" means the injected bug *was*
  detected).
- ``1`` -- validation outcome failure: an unexpected divergence, or an
  injected bug the generated vectors missed.
- ``2`` -- usage or input error (bad flags, unreadable files, unusable
  checkpoint store).
- ``3`` -- a model invariant failed on a reachable state
  (:class:`~repro.enumeration.bfs.InvariantViolation`): the abstract
  model itself is wrong, which outranks any validation verdict.
- ``4`` -- a resource budget truncated the run; results cover only the
  explored fraction and are reported before exiting.
- ``5`` -- retired (was a benchmark regression); never reused.
- ``130`` -- the run was interrupted (SIGINT *or* SIGTERM; the one-shot
  commands route both through the same wave-boundary checkpoint logic,
  so with ``--checkpoint-dir`` the partial work is resumable with
  ``--resume``).

``repro serve`` runs the validation service: a crash-tolerant daemon
accepting enumerate/validate/campaign jobs over HTTP/JSON with a durable
job journal, bounded-queue admission control (429 + ``Retry-After``
under saturation), content-addressed job dedup, per-job SSE progress
streams, and graceful SIGTERM drain.  See :mod:`repro.serve`.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from repro.bugs import BUGS
from repro.core.report import format_campaign_table
from repro.enumeration import StateGraph, enumerate_states
from repro.enumeration.bfs import InvariantViolation
from repro.obs import (
    Observer,
    ProgressReporter,
    ResourceSampler,
    RunReport,
    SamplingProfiler,
    Tracer,
    resolve,
    stderr_if_tty,
)
from repro.pp.fsm_model import PPModelConfig
from repro.resilience import (
    Budget,
    CheckpointConfig,
    CheckpointError,
    CheckpointStore,
    atomic_write_text,
    install_term_to_interrupt,
    restore_term_handler,
)
from repro.tour import arc_coverage

#: Documented exit codes (see module docstring).  When several apply the
#: most diagnostic wins: invariant violation > budget truncation > missed
#: divergence.
EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INVARIANT_VIOLATION = 3
EXIT_BUDGET_TRUNCATED = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell convention


#: Named model scales.  ``pp-full`` is the paper-scale control model
#: (~205K states vs the paper's 229,571); ``pp-default`` is the fast
#: development scale every command uses unless told otherwise.
MODEL_PRESETS = {
    "pp-default": PPModelConfig(fill_words=2),
    "pp-full": PPModelConfig.full(),
}


def _model_config(args) -> PPModelConfig:
    base = MODEL_PRESETS[getattr(args, "config", None) or "pp-default"]
    return PPModelConfig(
        fill_words=(args.fill_words if args.fill_words is not None
                    else base.fill_words),
        extra_pipe_stages=(args.extra_pipe_stages
                           if args.extra_pipe_stages is not None
                           else base.extra_pipe_stages),
        spill_words=(args.spill_words if args.spill_words is not None
                     else base.spill_words),
        model_branches=bool(getattr(args, "branches", False)
                            or base.model_branches),
    )


def _model_config_dict(args) -> dict:
    cfg = _model_config(args)
    return {
        "config": getattr(args, "config", None) or "pp-default",
        "fill_words": cfg.fill_words,
        "extra_pipe_stages": cfg.extra_pipe_stages,
        "spill_words": cfg.spill_words,
        "model_branches": cfg.model_branches,
    }


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", choices=sorted(MODEL_PRESETS),
                        default=None,
                        help="named model scale: 'pp-default' (fast, "
                             "2,135 states) or 'pp-full' (paper scale, "
                             "~205K states); individual flags below "
                             "override preset fields")
    parser.add_argument("--fill-words", type=int, default=None,
                        help="refill line length in word deliveries "
                             "(default 2)")
    parser.add_argument("--extra-pipe-stages", type=int, default=None,
                        help="trailing write-back stages tracked by control "
                             "(default 0)")
    parser.add_argument("--spill-words", type=int, default=None,
                        help="spill-buffer depth modelled during write-back "
                             "delivery (default 1 = not modelled)")
    parser.add_argument("--branches", action="store_true",
                        help="track branch-kill state in the control model")


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for enumeration and trace "
                             "simulation (0 = all CPUs)")


def _add_cache_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir",
                        help="persist/reuse pipeline artifacts "
                             "(state graph, tours, traces) in this directory")


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    _add_cache_dir_flag(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore cached artifacts and rebuild "
                             "(the fresh build is still stored)")
    incremental = parser.add_mutually_exclusive_group()
    incremental.add_argument("--incremental", dest="incremental",
                             action="store_true", default=True,
                             help="serve the build from a cached *related* "
                                  "model where a diff proves it sound: "
                                  "adopt entries on a no-op edit, "
                                  "re-enumerate only the dirty region on a "
                                  "localized edit (default; results are "
                                  "byte-identical to a cold build)")
    incremental.add_argument("--no-incremental", dest="incremental",
                             action="store_false",
                             help="disable incremental reuse (A/B switch; "
                                  "only ever costs time)")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome trace_event file (open in "
                             "chrome://tracing / Perfetto); a .jsonl suffix "
                             "streams the raw JSONL event log instead")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the unified run report JSON (metrics, "
                             "per-phase timings, stats); render it later "
                             "with 'repro report'")
    parser.add_argument("--log-level",
                        choices=["debug", "info", "warning", "error"],
                        help="enable structured logging to stderr")
    parser.add_argument("--heartbeat-out", metavar="PATH",
                        help="stream machine-readable JSONL progress "
                             "heartbeats (repro.heartbeat/1) to this file")
    parser.add_argument("--sample-interval", type=float, default=0.25,
                        metavar="SECONDS",
                        help="resource sampler tick: RSS/CPU/frontier "
                             "counter tracks in --trace-out traces and a "
                             "resources summary in the run report "
                             "(default 0.25; 0 disables)")
    parser.add_argument("--profile-out", metavar="PATH",
                        help="arm the sampling profiler and write a "
                             "collapsed-stack profile here (render with "
                             "flamegraph.pl or speedscope)")
    progress = parser.add_mutually_exclusive_group()
    progress.add_argument("--progress", action="store_true",
                          help="force the live stderr status line on "
                               "(default: only when stderr is a terminal)")
    progress.add_argument("--no-progress", action="store_true",
                          help="suppress the live stderr status line")


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="snapshot enumeration state into this directory "
                             "at wave boundaries (resumable with --resume)")
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        metavar="N",
                        help="checkpoint every N enumeration waves "
                             "(default: every wave)")
    parser.add_argument("--resume", action="store_true",
                        help="continue from the newest checkpoint in "
                             "--checkpoint-dir (bit-identical to an "
                             "uninterrupted run)")
    parser.add_argument("--wall-budget", type=float, metavar="SECONDS",
                        help="stop enumerating at the first wave boundary "
                             "past this wall-clock budget (exit code 4)")
    parser.add_argument("--memory-budget", type=float, metavar="MB",
                        help="stop enumerating when peak RSS exceeds this "
                             "many megabytes (exit code 4)")
    parser.add_argument("--state-budget", type=int, metavar="STATES",
                        help="stop enumerating once this many states have "
                             "been discovered (exit code 4; unlike an "
                             "exceeded --max-states this is a graceful "
                             "truncation, not an error)")


def _budget(args) -> Optional[Budget]:
    if (args.wall_budget is None and args.memory_budget is None
            and args.state_budget is None):
        return None
    return Budget(
        wall_seconds=args.wall_budget,
        max_memory_mb=args.memory_budget,
        max_states=args.state_budget,
    )


def _checkpoint_config(args) -> Optional[CheckpointConfig]:
    if not args.checkpoint_dir:
        if args.resume:
            raise CheckpointError("--resume requires --checkpoint-dir")
        return None
    return CheckpointConfig(args.checkpoint_dir,
                            every_waves=args.checkpoint_every)


def _print_resilience_status(stats) -> None:
    if stats.resumed:
        print("enumeration resumed from checkpoint")
    if stats.checkpoints_written:
        print(f"checkpoints written: {stats.checkpoints_written}")
    if stats.shards_retried or stats.degraded:
        detail = (f"{stats.shards_retried} shard retries, "
                  f"{stats.pool_respawns} pool respawns")
        if stats.degraded:
            detail += "; degraded to in-process expansion"
        print(f"worker recovery: {detail}")
    if stats.truncated:
        print(f"BUDGET TRUNCATED ({stats.budget_outcome} exhausted): "
              f"{stats.explored_fraction:.1%} of discovered states expanded, "
              f"{stats.frontier_remaining:,} left in the frontier")


def _configure_logging(args) -> None:
    level = getattr(args, "log_level", None)
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper()),
            format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
            stream=sys.stderr,
            force=True,
        )


def _progress_stream(args):
    if getattr(args, "no_progress", False):
        return None
    if getattr(args, "progress", False):
        return sys.stderr
    return stderr_if_tty()


def _make_observer(args) -> Optional[Observer]:
    """An observer when any sink is requested, else None (no-op path)."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    heartbeat_out = getattr(args, "heartbeat_out", None)
    profile_out = getattr(args, "profile_out", None)
    progress_stream = _progress_stream(args)
    if not any((trace_out, metrics_out, heartbeat_out, profile_out,
                progress_stream)):
        return None
    tracer = None
    if trace_out:
        # .jsonl streams events live (crash-tolerant); any other suffix
        # buffers and exports Chrome trace_event format on completion.
        tracer = Tracer(path=trace_out if trace_out.endswith(".jsonl") else None)
    progress = None
    if heartbeat_out or progress_stream is not None:
        progress = ProgressReporter(path=heartbeat_out, stream=progress_stream)
    sampler = None
    interval = getattr(args, "sample_interval", 0.0) or 0.0
    if interval > 0 and (trace_out or metrics_out):
        sampler = ResourceSampler(interval=interval, tracer=tracer)
        sampler.start()
    profiler = None
    if profile_out:
        profiler = SamplingProfiler()
        profiler.start()
        if not profiler.available:
            print("sampling profiler unavailable on this platform; "
                  "--profile-out will be empty", file=sys.stderr)
    return Observer(tracer=tracer, progress=progress, sampler=sampler,
                    profiler=profiler)


def _finish_observer(args, observer: Optional[Observer],
                     run_report: Optional[RunReport] = None) -> None:
    """Flush the observer's sinks to the paths the user asked for."""
    if observer is None:
        return
    # Stops the sampler/profiler and flushes the final heartbeat, so the
    # perf section has to be (re)captured after the close.
    observer.close()
    if run_report is not None:
        run_report.perf = observer.perf_summary()
    trace_out = getattr(args, "trace_out", None)
    if trace_out and observer.tracer is not None:
        if trace_out.endswith(".jsonl"):
            print(f"JSONL event trace written to {trace_out}")
        else:
            observer.tracer.write_chrome_trace(trace_out)
            print(f"chrome trace written to {trace_out} "
                  "(open in chrome://tracing or ui.perfetto.dev)")
    heartbeat_out = getattr(args, "heartbeat_out", None)
    if heartbeat_out and observer.progress is not None:
        print(f"heartbeats written to {heartbeat_out} "
              f"({observer.progress.emitted} emitted)")
    profile_out = getattr(args, "profile_out", None)
    if profile_out and observer.profiler is not None:
        observer.profiler.write_collapsed(profile_out)
        print(f"collapsed-stack profile written to {profile_out} "
              f"({observer.profiler.samples} samples; render with "
              "flamegraph.pl or speedscope)")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        if run_report is not None:
            run_report.write(metrics_out)
        else:
            atomic_write_text(metrics_out, observer.metrics.to_json())
        print(f"run report written to {metrics_out} "
              f"(render with: repro report {metrics_out})")


def _jobs(args) -> Optional[int]:
    # argparse gives an int; 0 means "use every CPU" (None internally).
    return None if args.jobs == 0 else args.jobs


def _print_cache_status(pipeline) -> None:
    if pipeline.cache_key is None:
        return
    short = pipeline.cache_key[:12]
    if pipeline.artifacts_from_cache:
        print(f"artifacts: cache hit ({short}) -- enumeration skipped")
    else:
        hits = [phase for phase, hit in pipeline.phase_hits.items() if hit]
        if hits:
            print(f"artifacts: built and cached ({short}); "
                  f"phase hits: {', '.join(hits)}")
        else:
            print(f"artifacts: built and cached ({short})")
    report = pipeline.incremental_report
    if report is not None and report.attempted:
        if report.classification == "no-op":
            print(f"incremental: no-op diff vs {report.base_key[:12]}; "
                  f"adopted {', '.join(report.adopted_phases) or 'nothing'}")
        else:
            print(f"incremental: localized diff vs {report.base_key[:12]}; "
                  f"re-enumerated {report.region_states} state(s), "
                  f"replayed {report.replayed_states}, spliced "
                  f"{report.spliced_tours} trace(s)")


def cmd_enumerate(args) -> int:
    import dataclasses

    from repro.core import ValidationPipeline

    observer = _make_observer(args)
    obs = resolve(observer)
    _checkpoint_config(args)  # validates --resume/--checkpoint-dir pairing
    pipeline = ValidationPipeline(
        model_config=_model_config(args),
        jobs=_jobs(args),
        cache_dir=args.cache_dir,
        observer=observer,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        budget=_budget(args),
    )
    with obs.span("cli.enumerate"):
        graph, stats = pipeline.build_graph(resume=args.resume)
    _print_cache_status(pipeline)
    print(stats.format_table())
    _print_resilience_status(stats)
    if args.graph_out:
        # Atomic: even a truncated (exit 4) run leaves a loadable graph.
        atomic_write_text(args.graph_out, graph.to_json())
        print(f"state graph written to {args.graph_out}")
    run_report = None
    if observer is not None:
        run_report = RunReport._from_pipeline(
            "enumerate", pipeline,
            config={**_model_config_dict(args), "jobs": args.jobs},
            enumeration=dataclasses.asdict(stats),
        )
    _finish_observer(args, observer, run_report)
    return EXIT_BUDGET_TRUNCATED if stats.truncated else EXIT_OK


def cmd_tours(args) -> int:
    from repro.core import ValidationPipeline

    pipeline = ValidationPipeline(
        model_config=_model_config(args),
        max_instructions_per_trace=args.limit,
        cache_dir=args.cache_dir,
    )
    tours = pipeline.build_tours()
    _print_cache_status(pipeline)
    stats = tours.stats
    report = arc_coverage(tours.graph, (t.edge_indices for t in tours))
    print(f"traces: {stats.num_traces}")
    print(f"arc traversals: {stats.total_edge_traversals:,} over "
          f"{stats.graph_edges:,} arcs (coverage complete: {report.complete})")
    print(f"instructions: {stats.total_instructions:,}")
    print(f"longest trace: {stats.longest_trace_edges:,} arcs")
    print(f"estimated simulation @100Hz: "
          f"{stats.estimated_simulation_hours():.2f} hours total, "
          f"{stats.estimated_longest_trace_hours() * 60:.1f} minutes for "
          "the longest trace")
    return 0


def _build_pipeline(args, observer: Optional[Observer]):
    """The :class:`ValidationPipeline` that ``validate`` and ``campaign``
    run, configured from their shared flags and built (steps 1-3)."""
    from repro.core import ValidationPipeline

    _checkpoint_config(args)  # validates --resume/--checkpoint-dir pairing
    pipeline = ValidationPipeline(
        model_config=_model_config(args),
        max_instructions_per_trace=args.limit or None,
        seed=args.seed,
        jobs=_jobs(args),
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        observer=observer,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        budget=_budget(args),
        incremental=args.incremental,
    )
    pipeline.build(resume=args.resume)
    _print_cache_status(pipeline)
    _print_resilience_status(pipeline.artifacts.enumeration)
    return pipeline


def _run_config(args) -> dict:
    """The run-report ``config`` section ``validate`` and ``campaign`` share."""
    return {**_model_config_dict(args),
            "limit": args.limit, "seed": args.seed, "jobs": args.jobs}


def cmd_validate(args) -> int:
    from repro.pp.rtl.core import CoreConfig

    observer = _make_observer(args)
    obs = resolve(observer)
    with obs.span("cli.validate"):
        pipeline = _build_pipeline(args, observer)
        config = CoreConfig(mem_latency=0)
        if args.bug:
            for bug_id in args.bug:
                if bug_id not in BUGS:
                    print(f"unknown bug id {bug_id}; known: {sorted(BUGS)}",
                          file=sys.stderr)
                    return EXIT_USAGE
            config = config.with_bugs(*args.bug)
            for bug_id in args.bug:
                print(f"injected bug #{bug_id}: {BUGS[bug_id].title}")
        report = pipeline.validate(config=config, stop_on_divergence=not args.all)
    print(report.summary())
    if pipeline.cache_dir is not None:
        print(f"verdicts: reused {report.reused_traces}/{report.traces_run} "
              f"from the cache's verdict table")
    run_report = None
    if observer is not None:
        run_report = RunReport.from_validation(
            report, pipeline,
            config={**_run_config(args), "bugs": args.bug or []},
        )
    _finish_observer(args, observer, run_report)
    if pipeline.artifacts.enumeration.truncated:
        return EXIT_BUDGET_TRUNCATED
    return EXIT_OK if report.clean == (not args.bug) else EXIT_VALIDATION_FAILED


def cmd_campaign(args) -> int:
    from repro.harness.campaign import ValidationCampaign

    observer = _make_observer(args)
    obs = resolve(observer)
    with obs.span("cli.campaign"):
        with obs.span("campaign.build"):
            pipeline = _build_pipeline(args, observer)
        results = ValidationCampaign(pipeline).evaluate_all_bugs()
    print(format_campaign_table(results))
    found = sum(r.outcomes["generated"].detected for r in results)
    print(f"\ngenerated vectors found {found}/{len(results)} injected bugs")
    run_report = None
    if observer is not None:
        run_report = RunReport.from_campaign(
            results, pipeline, config=_run_config(args)
        )
    _finish_observer(args, observer, run_report)
    if pipeline.artifacts.enumeration.truncated:
        return EXIT_BUDGET_TRUNCATED
    return EXIT_OK if found == len(results) else EXIT_VALIDATION_FAILED


def cmd_translate(args) -> int:
    import dataclasses

    from repro.translate import translate_verilog

    observer = _make_observer(args)
    obs = resolve(observer)
    stats = None
    with obs.span("cli.translate"):
        with open(args.source) as handle:
            source = handle.read()
        model, flat = translate_verilog(
            source, top=args.top, clock=args.clock, obs=obs
        )
        print(f"translated {args.source} (top: {args.top})")
        print(f"  state variables ({model.state_bits()} bits): "
              f"{', '.join(model.state_var_names)}")
        print(f"  free inputs: {', '.join(model.choice_names)}")
        if args.enumerate:
            with obs.span("phase.enumerate"):
                graph, stats = enumerate_states(
                    model, max_states=args.max_states, obs=obs
                )
            print(stats.format_table())
            if args.graph_out:
                atomic_write_text(args.graph_out, graph.to_json())
                print(f"state graph written to {args.graph_out}")
    run_report = None
    if observer is not None:
        run_report = RunReport.from_observer(
            "translate", observer,
            config={"source": args.source, "top": args.top},
            enumeration=dataclasses.asdict(stats) if stats else None,
        )
    _finish_observer(args, observer, run_report)
    return 0


def cmd_murphi(args) -> int:
    from repro.smurphi import parse_model

    with open(args.source) as handle:
        text = handle.read()
    model = parse_model(text, name=args.source)
    print(f"parsed {args.source}: {model!r}")
    graph, stats = enumerate_states(model, max_states=args.max_states)
    print(stats.format_table())
    return 0


def cmd_errata(args) -> int:
    from repro.errata.classify import format_table

    print(format_table())
    return 0


def cmd_checkpoints(args) -> int:
    """List, verify, inspect and prune an enumeration checkpoint store."""
    store = CheckpointStore(args.directory)
    if args.inspect:
        try:
            payload = store.load(args.inspect)
        except CheckpointError as exc:
            print(f"{exc}", file=sys.stderr)
            return EXIT_USAGE
        graph = StateGraph.from_json(payload["graph_json"])
        print(f"checkpoint {args.inspect} ({store.payload_path(args.inspect)})")
        print(f"  model:            {payload['model']}")
        print(f"  config digest:    {payload['config_digest'][:12]}")
        print(f"  waves completed:  {payload['waves_completed']}")
        print(f"  states:           {graph.num_states:,}")
        print(f"  edges:            {graph.num_edges:,}")
        print(f"  frontier pending: {len(payload['frontier']):,}")
        print(f"  transitions:      {payload['transitions_explored']:,}")
        return EXIT_OK
    if args.prune:
        removed = store.prune(keep=args.keep)
        print(f"pruned {removed} checkpoint(s); kept the newest {args.keep}")
        return EXIT_OK
    names = store.names()
    if not names:
        print(f"no checkpoints in {store.directory}")
        return EXIT_OK
    print(f"{'name':<14} {'waves':>6} {'frontier':>9} {'transitions':>12} "
          f"{'size':>10}  status")
    for name in names:
        problem = store.verify(name)
        status = "ok" if problem is None else f"CORRUPT: {problem}"
        try:
            manifest = store.manifest(name)
        except CheckpointError:
            manifest = {}
        print(f"{name:<14} {manifest.get('waves_completed', '?'):>6} "
              f"{manifest.get('frontier', '?'):>9} "
              f"{manifest.get('transitions_explored', '?'):>12} "
              f"{manifest.get('size', '?'):>10}  {status}")
    return EXIT_OK


def cmd_cache(args) -> int:
    """List, summarize and prune a pipeline artifact cache directory."""
    from repro.core.cache import ArtifactCache

    cache = ArtifactCache(args.directory)
    if args.prune:
        removed = cache.prune()
        print(f"pruned {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.cache_dir}")
        return EXIT_OK
    rows = cache.entries()
    if not rows:
        print(f"no cache entries in {cache.cache_dir}")
        return EXIT_OK
    if args.stats:
        total = sum(row["size"] for row in rows)
        by_phase = {}
        for row in rows:
            phase = row["phase"] or "(monolithic)"
            count, size = by_phase.get(phase, (0, 0))
            by_phase[phase] = (count + 1, size + row["size"])
        print(f"{len(rows)} entr{'y' if len(rows) == 1 else 'ies'}, "
              f"{total / 1024:.0f} KiB total in {cache.cache_dir}")
        for phase in sorted(by_phase):
            count, size = by_phase[phase]
            print(f"  {phase:<12} {count:>4} entr{'y' if count == 1 else 'ies'} "
                  f"{size / 1024:>8.0f} KiB")
        return EXIT_OK
    print(f"{'key':<14} {'phase':<12} {'size':>10} {'age':>8} {'builds':>7}")
    for row in rows:
        age = row["age_seconds"]
        if age is None:
            age_text = "?"
        elif age >= 3600:
            age_text = f"{age / 3600:.1f}h"
        elif age >= 60:
            age_text = f"{age / 60:.1f}m"
        else:
            age_text = f"{age:.0f}s"
        print(f"{row['key'][:12]:<14} {row['phase'] or '-':<12} "
              f"{row['size']:>10,} {age_text:>8} {row['builds']:>7}")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        report = RunReport.load(args.report)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read run report {args.report}: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.curve:
        if not report.coverage_curve:
            print("run report has no coverage-curve data", file=sys.stderr)
            return 2
        with open(args.curve, "w") as handle:
            handle.write("trace_index,cumulative_instructions,"
                         "cumulative_covered_edges,coverage_fraction\n")
            for point in report.coverage_curve:
                handle.write(
                    f"{point['trace_index']},{point['cumulative_instructions']},"
                    f"{point['cumulative_covered_edges']},"
                    f"{point['coverage_fraction']:.6f}\n"
                )
        print(f"coverage curve written to {args.curve}")
    return 0


def cmd_serve(args) -> int:
    from repro.resilience import RetryPolicy
    from repro.serve import ServeConfig, run_server

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            state_dir=args.state_dir,
            workers=args.workers,
            max_pending=args.max_pending,
            memory_budget_mb=args.memory_budget,
            execution=args.execution,
            job_timeout=args.job_timeout,
            retry=RetryPolicy(max_retries=args.retries,
                              backoff_seconds=args.retry_backoff),
            degrade_inline=not args.no_degrade,
            cache_dir=args.cache_dir,
            port_file=args.port_file,
        )
    except ValueError as exc:
        print(f"bad serve configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run_server(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Architecture Validation for Processors (ISCA 1995) "
                    "-- reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate the PP control state graph")
    _add_model_flags(p)
    _add_jobs_flag(p)
    _add_obs_flags(p)
    _add_resilience_flags(p)
    _add_cache_dir_flag(p)
    p.add_argument("--graph-out", help="write the state graph as JSON")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("tours", help="generate transition tours")
    _add_model_flags(p)
    _add_cache_dir_flag(p)
    p.add_argument("--limit", type=int, default=400,
                   help="instructions per trace (0 = unlimited)")
    p.set_defaults(func=cmd_tours)

    p = sub.add_parser("validate", help="run the full validation pipeline")
    _add_model_flags(p)
    _add_jobs_flag(p)
    _add_cache_flags(p)
    _add_obs_flags(p)
    _add_resilience_flags(p)
    p.add_argument("--limit", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bug", type=int, action="append",
                   help="inject a Table 2.1 bug (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="run every trace even after a divergence")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("campaign", help="Table 2.1: all bugs x all methods")
    _add_model_flags(p)
    _add_jobs_flag(p)
    _add_cache_flags(p)
    _add_obs_flags(p)
    _add_resilience_flags(p)
    p.add_argument("--limit", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("translate", help="translate Verilog to an FSM model")
    _add_obs_flags(p)
    p.add_argument("source")
    p.add_argument("--top", required=True)
    p.add_argument("--clock", default="clk")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--max-states", type=int, default=1_000_000)
    p.add_argument("--graph-out")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("murphi", help="parse + enumerate a Murphi text model")
    p.add_argument("source")
    p.add_argument("--max-states", type=int, default=1_000_000)
    p.set_defaults(func=cmd_murphi)

    p = sub.add_parser("errata", help="print the R4000 errata table (Table 1.1)")
    p.set_defaults(func=cmd_errata)

    p = sub.add_parser("checkpoints",
                       help="list/verify/inspect/prune an enumeration "
                            "checkpoint store")
    p.add_argument("directory", help="checkpoint directory (--checkpoint-dir)")
    p.add_argument("--inspect", metavar="NAME",
                   help="verify and summarize one checkpoint (e.g. wave000004)")
    p.add_argument("--prune", action="store_true",
                   help="delete all but the newest --keep checkpoints")
    p.add_argument("--keep", type=int, default=1,
                   help="checkpoints to retain with --prune (default 1)")
    p.set_defaults(func=cmd_checkpoints)

    p = sub.add_parser("cache",
                       help="list/summarize/prune a pipeline artifact "
                            "cache directory (--cache-dir)")
    p.add_argument("directory", help="cache directory (--cache-dir)")
    p.add_argument("--stats", action="store_true",
                   help="aggregate per-phase entry counts and sizes")
    p.add_argument("--prune", action="store_true",
                   help="delete every cache entry (locks and temp files "
                        "included)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("report",
                       help="render a saved run report JSON (--metrics-out)")
    p.add_argument("report", help="path to a run report JSON file")
    p.add_argument("--curve", metavar="CSV",
                   help="also export the Fig 4.1 coverage-curve data as CSV")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("serve",
                       help="run the validation service: a crash-tolerant "
                            "HTTP/JSON job daemon")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8642,
                   help="bind port (0 picks a free port; see --port-file)")
    p.add_argument("--port-file", default=None,
                   help="write the bound port here (for --port 0)")
    p.add_argument("--state-dir", default=".repro-serve",
                   help="durable daemon state: job journal, per-job "
                        "results / heartbeats / checkpoints")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent job slots (each job runs in its own "
                        "child process)")
    p.add_argument("--max-pending", type=int, default=64,
                   help="queue depth bound; beyond it submissions are shed "
                        "with 429 + Retry-After")
    p.add_argument("--memory-budget", type=float, default=None,
                   metavar="MB",
                   help="shed new submissions while daemon RSS exceeds "
                        "this many megabytes")
    p.add_argument("--execution", choices=("process", "inline"),
                   default="process",
                   help="job isolation: forked child per attempt (default) "
                        "or in-daemon threads")
    p.add_argument("--job-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="kill a job attempt running longer than this "
                        "(then retry policy applies)")
    p.add_argument("--retries", type=int, default=2,
                   help="attempts after a crashed job before degrading")
    p.add_argument("--retry-backoff", type=float, default=0.2,
                   metavar="SECONDS", help="base exponential backoff delay")
    p.add_argument("--no-degrade", action="store_true",
                   help="fail jobs whose retries are exhausted instead of "
                        "degrading to in-daemon execution")
    p.add_argument("--cache-dir", default=None,
                   help="artifact cache shared with the one-shot CLI "
                        "(default: STATE_DIR/cache)")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    if getattr(args, "limit", None) == 0:
        args.limit = None
    # One-shot commands treat `kill` like Ctrl-C: SIGTERM becomes
    # KeyboardInterrupt, checkpoints land at wave boundaries, and the
    # exit path below points at --resume.  The daemon is exempt -- it
    # owns SIGTERM for graceful drain.  The handler is restored on
    # return, so an in-process caller keeps its own disposition: a fork
    # child that inherits this handler dies on SIGTERM only once its
    # main thread runs Python code, and one blocked on a lock never does.
    previous_term = (
        install_term_to_interrupt() if args.func is not cmd_serve else None
    )
    try:
        return args.func(args)
    except KeyboardInterrupt:
        checkpoint_dir = getattr(args, "checkpoint_dir", None)
        hint = (f"; resume with --resume --checkpoint-dir {checkpoint_dir}"
                if checkpoint_dir else "")
        print(f"interrupted{hint}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except InvariantViolation as exc:
        # The abstract model is broken on a reachable state; no validation
        # verdict built on it can be trusted, hence a dedicated exit code.
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # stdout was closed early (e.g. `repro report ... | head`);
        # suppress the traceback and exit quietly like other CLI tools.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    finally:
        restore_term_handler(previous_term)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
