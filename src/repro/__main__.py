"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``      — print the paper's Figure 1 / Figure 8 tables.
* ``microbench``  — the single-lock critical-section benchmark.
* ``stm``         — the STM data-structure benchmark.
* ``app``         — one application kernel under one lock model.
* ``figure``      — regenerate a paper figure (fig9a .. fig13).
* ``locks``       — list registered lock algorithms.
* ``report``      — validate and summarize a run-report JSON file.
* ``check``       — conformance/invariant checking: fuzz one lock
  algorithm (or ``--all``) under the invariant monitor and reference
  oracle; replay and minimize JSON reproducers.  Exits 1 on violation.
* ``profile``     — run the contention profiler on a microbenchmark:
  per-lock acquire-latency decomposition, queue-depth stats, critical
  path, folded-stack / Perfetto export.
* ``diff``        — structurally diff two run reports; with
  ``--fail-on-regression``, exit 1 when a known-direction quantity
  moved past ``--threshold`` in the wrong direction.
* ``sweep``       — shard a microbench matrix (cells x seeds) across
  worker processes and merge the per-shard telemetry into a single
  RunReport, byte-identical to the serial run (``--verify-serial``
  proves it).
* ``fairness``    — the fairness scorecard: run the pinned
  lock x model matrix under the fairness observatory and report the
  Jain index, worst arrival-order overtake, writer share and p999
  wait per cell; ``--metrics-out`` writes them as a ``fairness`` run
  report, which ``repro diff`` gates like any other (a Jain drop, a
  fatter overtake).

Simulator speed is not measured here: ``python perf/run.py`` times the
repo benchmark's workloads (``--trace`` adds per-layer host time).

The benchmark commands accept ``--metrics-out FILE`` (machine-readable
run report), ``--trace-out FILE`` (Chrome trace-event JSON, loadable in
Perfetto) and ``--sample-interval N`` (gauge time-series period in
cycles); ``microbench`` and ``figure`` also take ``--profile`` to embed
a profile section in the run report, and ``microbench``/``figure``/
``app`` take ``--fairness`` to attach the fairness observatory (the
``fairness`` section of RunReport v4).  See README "Observability",
"Profiling & regression gating", "Host performance" and "Fairness
observatory".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.harness.microbench import run_microbench
from repro.harness.parallel import (
    DEFAULT_ITERS,
    DEFAULT_LOCKS,
    DEFAULT_THREADS,
    DEFAULT_WRITE_PCT,
)
from repro.locks.base import all_algorithms
from repro.obs import MetricsRegistry, SpanTracer
from repro.params import make_model

#: figure name -> run(figures module, scale, **telemetry kwargs); the
#: ``repro.harness.figures`` module is passed in so that only the
#: ``figure`` verb imports it
_FIGURES = {
    "fig9a": lambda f, s, **kw: f.figure9(
        "A", iters_per_thread=100 * s, **kw),
    "fig9b": lambda f, s, **kw: f.figure9(
        "B", write_ratios=(100, 50), iters_per_thread=100 * s, **kw),
    "fig10a": lambda f, s, **kw: f.figure10(
        "A", thread_counts=(8, 16, 32, 48),
        iters_per_thread=30 * s, quantum=20_000, **kw,
    ),
    "fig10b": lambda f, s, **kw: f.figure10(
        "B", thread_counts=(4, 8, 16, 32), iters_per_thread=60 * s,
        locks=("lcu", "mcs", "mrsw", "tatas"), **kw,
    ),
    "fig11a": lambda f, s, **kw: f.figure11(
        "A", txns_per_thread=40 * s, **kw),
    "fig11b": lambda f, s, **kw: f.figure11(
        "B", thread_counts=(1, 4, 8, 16), txns_per_thread=30 * s, **kw,
    ),
    "fig12a": lambda f, s, **kw: f.figure12(
        "A", sizes={"rb": 2_048 * s, "skip": 2_048 * s, "hash": 8_192 * s},
        txns_per_thread=30 * s, **kw,
    ),
    "fig12b": lambda f, s, **kw: f.figure12(
        "B", sizes={"rb": 1_024 * s, "skip": 1_024 * s, "hash": 4_096 * s},
        txns_per_thread=25 * s, **kw,
    ),
    "fig13": lambda f, s, **kw: f.figure13(
        seeds=tuple(range(1, 3 + s)), **kw),
}

#: ``stm``/``app`` choices, spelled out so that building the parser
#: imports neither the STM nor the applications; tests/test_cli.py
#: checks them against ``ObjectSTM.VARIANTS``, ``STRUCTURES`` and
#: ``all_apps()``
_STM_VARIANTS = ("fraser", "lcu", "ssb", "sw-only")
_STM_STRUCTURES = ("hash", "rb", "skip")
_APPS = ("cholesky", "fluidanimate", "radiosity")


#: figures whose runs go through run_microbench and therefore have
#: lock-phase probes the profiler can attach to
_PROFILABLE_FIGURES = {"fig9a", "fig9b", "fig10a", "fig10b"}


# --------------------------------------------------------------------- #
# telemetry plumbing shared by the benchmark commands

def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write a machine-readable run report (JSON) here",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome trace-event JSON (Perfetto-loadable) here",
    )
    parser.add_argument(
        "--sample-interval", type=int, default=0, metavar="CYCLES",
        help="sample gauge time series every N cycles (0 = off)",
    )


def _add_matrix_flags(parser: argparse.ArgumentParser, default_locks: str,
                      csv_threads: bool = True) -> None:
    """``--locks``/``--models`` (and a CSV ``--threads``) of a verb that
    runs a lock x model matrix; :func:`_matrix_kwargs` reads them."""
    parser.add_argument("--locks", default=None, metavar="CSV",
                        help=f"comma-separated lock list "
                             f"(default: {default_locks})")
    parser.add_argument("--models", default=None, metavar="CSV",
                        help="comma-separated model list (default: A,B)")
    if csv_threads:
        parser.add_argument("--threads", default=None, metavar="CSV",
                            help="comma-separated thread counts "
                                 f"(default: "
                                 f"{','.join(map(str, DEFAULT_THREADS))})")


def _obs_setup(args):
    """Build (registry, tracer) from the telemetry flags; both None when
    the flags are absent, so instrumentation stays off."""
    registry = MetricsRegistry() if args.metrics_out else None
    tracer = SpanTracer() if args.trace_out else None
    return registry, tracer


def _profiler_setup(args):
    """A :class:`ContentionProfiler` when ``--profile`` was given."""
    if not getattr(args, "profile", False):
        return None
    from repro.obs.profile import ContentionProfiler

    return ContentionProfiler()


#: the ``--profile``/``--fairness`` scope of ``figure``
_FIRST_RUN = " to the first microbench run of the sweep (fig9*/fig10* only)"


def _add_profile_flag(parser: argparse.ArgumentParser,
                      scope: str = "") -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help=f"attach the contention profiler{scope}; with --metrics-out, "
             f"embeds a 'profile' section in the run report, otherwise "
             f"prints the summary",
    )


def _add_fairness_flag(
    parser: argparse.ArgumentParser, scope: str = "",
    output: str = "with --metrics-out, embeds a 'fairness' section in "
                  "the run report, otherwise prints the per-lock digest",
) -> None:
    parser.add_argument(
        "--fairness", action="store_true",
        help=f"attach the fairness observatory (overtake ledger, wait "
             f"histograms, starvation watchdog){scope}; {output}",
    )


def _add_workers_flag(parser: argparse.ArgumentParser, what: str,
                      default: str = "serial") -> None:
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=f"fan {what} out over N worker processes; the result is "
             f"byte-identical to the serial run (default: {default})",
    )


def _fairness_setup(args):
    """A :class:`FairnessObservatory` when ``--fairness`` was given."""
    if not getattr(args, "fairness", False):
        return None
    from repro.obs.fairness import FairnessObservatory

    return FairnessObservatory()


def _obs_emit(args, kind, config, result, registry, tracer,
              profiler=None, fairness=None) -> None:
    """Write the run report / trace files requested on the command line."""
    if registry is not None:
        from repro.obs.report import build_run_report, write_run_report

        results = (
            dataclasses.asdict(result)
            if dataclasses.is_dataclass(result) else result
        )
        report = build_run_report(
            kind, config, results, metrics=registry.to_dict(),
            profile=profiler.to_dict() if profiler is not None else None,
            fairness=(fairness.to_dict() if fairness is not None
                      else None),
        )
        write_run_report(args.metrics_out, report)
        print(f"run report: {args.metrics_out}")
    else:
        if profiler is not None:
            print(profiler.summarize())
        if fairness is not None:
            from repro.obs.fairness import summarize_fairness
            print(summarize_fairness(fairness.to_dict()))
    if tracer is not None:
        tracer.write_chrome_trace(args.trace_out)
        print(f"chrome trace: {args.trace_out} "
              f"({len(tracer.spans)} spans)")


def _csv_ints(flag: str, text: str):
    """The integers of a CSV flag; None after reporting a bad entry."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        print(f"error: {flag} takes comma-separated integers, got "
              f"{text!r}", file=sys.stderr)
        return None


def _matrix_kwargs(args, csv_threads: bool = True):
    """The ``locks``/``models``/``threads`` keyword arguments given by
    a verb's ``--locks``/``--models``/``--threads`` CSV flags (only the
    flags that were set).  ``csv_threads=False`` leaves ``--threads``
    to the verb.  Returns None after reporting an unknown lock or
    model, or a non-integer thread count."""
    kwargs = {}
    if args.locks:
        known = sorted(all_algorithms())
        for lock in args.locks.split(","):
            if lock not in known:
                print(f"unknown lock {lock!r} (known: {', '.join(known)})",
                      file=sys.stderr)
                return None
        kwargs["locks"] = tuple(args.locks.split(","))
    if args.models:
        for model in args.models.split(","):
            try:
                make_model(model)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return None
        kwargs["models"] = tuple(args.models.split(","))
    if csv_threads and args.threads:
        kwargs["threads"] = _csv_ints("--threads", args.threads)
        if kwargs["threads"] is None:
            return None
    return kwargs


def cmd_tables(_args) -> int:
    from repro.harness.tables import figure1_table, figure8_table

    print(figure1_table())
    print()
    print(figure8_table())
    return 0


def cmd_locks(_args) -> int:
    for name, cls in sorted(all_algorithms().items()):
        kind = "HW" if cls.hardware else "SW"
        rw = "RW" if cls.rw_support else "mutex"
        print(f"{name:8s} [{kind}, {rw}] {cls.__doc__.splitlines()[0] if cls.__doc__ else ''}")
    return 0


def cmd_microbench(args) -> int:
    config = make_model(args.model)
    registry, tracer = _obs_setup(args)
    profiler = _profiler_setup(args)
    fairness = _fairness_setup(args)
    r = run_microbench(
        config, args.lock, args.threads, args.write_pct,
        iters_per_thread=args.iters,
        registry=registry, tracer=tracer,
        sample_interval=args.sample_interval,
        profiler=profiler, fairness=fairness,
    )
    print(r)
    print(f"  fairness={r.fairness:.3f} acquire latency mean="
          f"{r.acquire_latency_mean:.0f} hub util={r.hub_utilisation:.2f}")
    _obs_emit(
        args, "microbench",
        {
            "lock": args.lock, "model": args.model,
            "threads": args.threads, "write_pct": args.write_pct,
            "iters_per_thread": args.iters,
            "sample_interval": args.sample_interval,
            "machine": dataclasses.asdict(config),
        },
        r, registry, tracer, profiler, fairness,
    )
    return 0


def cmd_stm(args) -> int:
    from repro.harness.stm_bench import run_stm_bench

    config = make_model(args.model)
    registry, tracer = _obs_setup(args)
    r = run_stm_bench(
        config, args.variant, args.structure,
        threads=args.threads, initial_size=args.size,
        txns_per_thread=args.txns,
        registry=registry, tracer=tracer,
        sample_interval=args.sample_interval,
    )
    print(r)
    _obs_emit(
        args, "stm",
        {
            "variant": args.variant, "structure": args.structure,
            "model": args.model, "threads": args.threads,
            "initial_size": args.size, "txns_per_thread": args.txns,
            "sample_interval": args.sample_interval,
            "machine": dataclasses.asdict(config),
        },
        r, registry, tracer,
    )
    return 0


def cmd_app(args) -> int:
    from repro.apps.base import run_app

    config = make_model(args.model)
    registry, tracer = _obs_setup(args)
    fairness = _fairness_setup(args)
    r = run_app(config, args.name, args.lock,
                threads=args.threads, seeds=list(range(1, args.seeds + 1)),
                registry=registry, tracer=tracer,
                sample_interval=args.sample_interval,
                fairness=fairness)
    print(r)
    _obs_emit(
        args, "app",
        {
            "app": args.name, "lock": args.lock, "model": args.model,
            "threads": args.threads, "seeds": args.seeds,
            "sample_interval": args.sample_interval,
            "machine": dataclasses.asdict(config),
        },
        r, registry, tracer, fairness=fairness,
    )
    return 0


def cmd_figure(args) -> int:
    from repro.harness import figures

    registry, tracer = _obs_setup(args)
    profiler = _profiler_setup(args)
    fairness = _fairness_setup(args)
    kwargs = dict(
        registry=registry, tracer=tracer,
        sample_interval=args.sample_interval,
    )
    if profiler is not None:
        if args.name not in _PROFILABLE_FIGURES:
            print(f"error: --profile supports only "
                  f"{sorted(_PROFILABLE_FIGURES)} (lock-level probes); "
                  f"{args.name} is an STM/app figure", file=sys.stderr)
            return 2
        kwargs["profiler"] = profiler
    if fairness is not None:
        if args.name not in _PROFILABLE_FIGURES:
            print(f"error: --fairness supports only "
                  f"{sorted(_PROFILABLE_FIGURES)} (lock observer "
                  f"events); {args.name} is an STM/app figure",
                  file=sys.stderr)
            return 2
        kwargs["fairness"] = fairness
    result = _FIGURES[args.name](figures, args.scale, **kwargs)
    print(result.text)
    _obs_emit(
        args, "figure",
        {
            "figure": args.name, "scale": args.scale,
            "sample_interval": args.sample_interval,
        },
        {
            "figure": result.figure,
            "xs": result.xs,
            "series": result.series,
            "checks": result.checks,
        },
        registry, tracer, profiler, fairness=fairness,
    )
    if result.checks:
        ok = all(result.checks.values())
        print(f"shape checks [{'OK' if ok else 'MISMATCH'}]:",
              result.checks)
        return 0 if ok else 1
    return 0


def cmd_report(args) -> int:
    from repro.obs.report import (
        ReportValidationError, summarize_run_report, validate_run_report,
    )

    try:
        with open(args.file) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        validate_run_report(report)
    except ReportValidationError as exc:
        print(f"invalid run report {args.file}:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return 1
    print(summarize_run_report(report))
    if report["kind"] == "fairness":
        from repro.harness.fairness_bench import scorecard_table

        print(scorecard_table(report))
    return 0


def cmd_profile(args) -> int:
    from repro.obs.profile import ContentionProfiler
    from repro.obs.report import build_run_report, write_run_report

    if args.top <= 0:
        print("error: --top must be positive", file=sys.stderr)
        return 2
    config = make_model(args.model)
    profiler = ContentionProfiler()
    registry = MetricsRegistry() if args.metrics_out else None
    r = run_microbench(
        config, args.lock, args.threads, args.write_pct,
        iters_per_thread=args.iters, cs_cycles=args.cs_cycles,
        seed=args.seed,
        registry=registry, profiler=profiler,
    )
    print(profiler.summarize(top=args.top))
    print()
    print(r)
    if args.folded_out:
        profiler.write_folded(args.folded_out)
        print(f"folded stacks: {args.folded_out}")
    if args.trace_out:
        profiler.write_chrome_trace(args.trace_out)
        print(f"chrome trace: {args.trace_out}")
    if args.metrics_out:
        report = build_run_report(
            "microbench",
            {
                "lock": args.lock, "model": args.model,
                "threads": args.threads, "write_pct": args.write_pct,
                "iters_per_thread": args.iters,
                "cs_cycles": args.cs_cycles, "seed": args.seed,
                "machine": dataclasses.asdict(config),
            },
            dataclasses.asdict(r),
            metrics=registry.to_dict(),
            profile=profiler.to_dict(top=args.top),
        )
        write_run_report(args.metrics_out, report)
        print(f"run report: {args.metrics_out}")
    return 0


def cmd_diff(args) -> int:
    from repro.obs.diff import diff_run_reports
    from repro.obs.report import ReportValidationError, validate_run_report

    threshold = args.threshold
    if threshold < 0:
        print("error: --threshold must be >= 0", file=sys.stderr)
        return 2

    objs = []
    for path in (args.old, args.new):
        try:
            with open(path) as f:
                objs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    old_obj, new_obj = objs

    for path, obj in zip((args.old, args.new), objs):
        try:
            validate_run_report(obj)
        except ReportValidationError as exc:
            print(f"invalid run report {path}: {exc}", file=sys.stderr)
            return 2
    d = diff_run_reports(old_obj, new_obj, threshold=threshold)
    print(d.summarize(top=args.top))
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(d.to_dict(), f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"diff report: {args.json_out}")
    if d.has_regressions():
        if args.fail_on_regression:
            print(
                f"FAIL: {len(d.regressions)} regression(s) beyond "
                f"{threshold:.0%}",
                file=sys.stderr,
            )
            return 1
        print(f"note: {len(d.regressions)} regression(s) found "
              f"(pass --fail-on-regression to gate)")
    return 0


def cmd_fairness(args) -> int:
    from repro.harness.fairness_bench import (
        DEFAULT_DURATION, DEFAULT_THREADS, QUICK_DURATION, QUICK_THREADS,
        run_fairness_bench, scorecard_config, scorecard_table,
    )
    from repro.obs.report import build_run_report, write_run_report

    kwargs = _matrix_kwargs(args, csv_threads=False)
    if kwargs is None:
        return 2
    # an explicit --threads/--duration wins over the --quick defaults;
    # quick keeps the full lock x model coverage (the scorecard is the
    # point) and shrinks each cell instead
    threads = args.threads if args.threads is not None else (
        QUICK_THREADS if args.quick else DEFAULT_THREADS)
    duration = args.duration if args.duration is not None else (
        QUICK_DURATION if args.quick else DEFAULT_DURATION)
    errors = [msg for bad, msg in (
        (threads < 1, f"--threads must be >= 1, got {threads}"),
        (duration < 1, f"--duration must be >= 1, got {duration}"),
        (not 0 <= args.write_pct <= 100,
         f"--write-pct must be in [0, 100], got {args.write_pct}"),
    ) if bad]
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    if errors:
        return 2
    config = scorecard_config(
        threads=threads, write_pct=args.write_pct, duration=duration,
        seed=args.seed, slo=args.slo,
        starvation_bound=args.starvation_bound, **kwargs,
    )

    print(f"fairness scorecard: "
          f"{len(config['locks']) * len(config['models'])} cell(s), "
          f"{threads} threads, {args.write_pct}% writers (fixed roles), "
          f"{duration} cycles")
    cells = run_fairness_bench(
        config,
        progress=lambda key, cell: print(
            f"  {key:10s}: jain={cell['jain']:.3f} "
            f"max-ot={cell['max_overtake']} "
            f"w-share={cell['writer_share']:.3f}"
        ),
    )
    report = build_run_report("fairness", config, {"cells": cells})
    print()
    print(scorecard_table(report))
    if args.metrics_out:
        write_run_report(args.metrics_out, report)
        print(f"run report: {args.metrics_out}")
    not_passive = [key for key, c in cells.items() if not c["zero_overhead"]]
    if not_passive:
        print(f"WARNING: observatory changed simulated cycles in: "
              f"{', '.join(not_passive)}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    from repro.harness.parallel import (
        default_matrix, default_workers, run_sweep, sweep_shards,
    )
    from repro.obs.report import write_run_report

    kwargs = _matrix_kwargs(args)
    seeds = _csv_ints("--seeds", args.seeds)
    if kwargs is None or seeds is None:
        return 2
    specs = default_matrix(
        write_pct=args.write_pct, iters=args.iters, **kwargs,
    )
    workers = args.workers if args.workers is not None else default_workers()
    shards = sweep_shards(specs, seeds)
    mode = "serial" if workers <= 1 else f"{min(workers, len(shards))} procs"
    print(f"sweep: {len(specs)} cell(s) x {len(seeds)} seed(s) = "
          f"{len(shards)} shard(s), {mode}")

    def progress(payload) -> None:
        r = payload["result"]
        print(f"  {r['lock']:7s} model {r['model']} t={r['threads']} "
              f"seed={payload['seed']}\t{r['cycles_per_cs']:.1f} cyc/CS "
              f"({r['total_cs']} CS in {r['elapsed']} cycles)")

    report = run_sweep(specs, seeds, workers=workers, progress=progress,
                       fairness=args.fairness)
    if args.verify_serial and workers >= 2:
        serial = run_sweep(specs, seeds, workers=0, fairness=args.fairness)
        a = json.dumps(report, sort_keys=True)
        b = json.dumps(serial, sort_keys=True)
        if a != b:
            print("FAIL: parallel report differs from serial reference",
                  file=sys.stderr)
            return 1
        print("verified: parallel report byte-identical to serial run")
    if args.out:
        write_run_report(args.out, report)
        print(f"sweep report: {args.out}")
    res = report["results"]
    print(f"merged: {res['shard_count']} shard(s), "
          f"{res['total_cs']} critical sections")
    return 0


def cmd_check(args) -> int:
    from repro.check.fuzz import (
        FuzzCase, fuzz_matrix, load_case, run_case, save_case, shrink,
    )

    tracer = SpanTracer() if args.trace_out else None

    def emit_trace() -> None:
        if tracer is not None:
            tracer.write_chrome_trace(args.trace_out)
            print(f"chrome trace: {args.trace_out} "
                  f"({len(tracer.spans)} spans)")

    def report_failure(outcome) -> None:
        print(outcome.summary())
        if args.minimize:
            small = shrink(outcome.case)
            path = args.save_repro or (
                f"check-repro-{small.case.algo}-{small.case.model}.json"
            )
            save_case(small, path, note=f"minimized from: "
                                        f"{outcome.case.describe()}")
            print(f"minimized reproducer: {path} "
                  f"({small.case.describe()})")
        elif args.save_repro:
            save_case(outcome, args.save_repro)
            print(f"reproducer: {args.save_repro}")

    if args.replay:
        outcome = run_case(load_case(args.replay), span_tracer=tracer)
        if outcome.ok:
            print(outcome.summary())
        else:
            report_failure(outcome)
        emit_trace()
        return 0 if outcome.ok else 1

    locks = sorted(all_algorithms()) if args.all else [args.lock]
    models = ["A", "B"] if args.model == "all" else [args.model]
    workers = args.workers or 0
    if tracer is not None and workers >= 2:
        print("note: --trace-out forces a serial run (spans cannot "
              "cross process boundaries)")
        workers = 0

    def shard_progress(shard) -> None:
        print(f"{shard['algo']:8s} model {shard['model']}: "
              f"{'FAIL' if shard['failing'] else 'pass'}  "
              f"({shard['runs']} runs, {shard['total_cs']} CS)")

    shards = fuzz_matrix(
        locks, models, runs=args.runs, seed=args.seed,
        workers=workers, progress=shard_progress, span_tracer=tracer,
    )
    failed = []
    for shard in shards:
        if shard["failing"]:
            failed.append((shard["algo"], shard["model"]))
            # replay the failing case in-process (deterministic) to
            # recover the full outcome for minimization/saving
            report_failure(run_case(FuzzCase.from_dict(shard["failing"][0])))
    emit_trace()
    if failed:
        print(f"{len(failed)} failing combination(s): {failed}")
        return 1
    return 0


def cmd_faults(args) -> int:
    from repro.faults.nemesis import (
        DEFAULT_ALGOS, DEFAULT_MODELS, run_matrix,
    )
    from repro.faults.plan import ALL_CLASSES

    if args.list_classes:
        from repro.faults.plan import (
            CRASH_CLASSES,
            GRAY_CLASSES,
            LCU_ONLY_CLASSES,
            MESSAGE_CLASSES,
            SCHED_CLASSES,
        )
        groups = [
            ("message (all algorithms)", MESSAGE_CLASSES),
            ("scheduler (all algorithms)", SCHED_CLASSES),
            ("crash-stop (all algorithms)", CRASH_CLASSES),
            ("gray failure (all algorithms)", GRAY_CLASSES),
            ("hardware pressure (LCU-backed locks only)", LCU_ONLY_CLASSES),
        ]
        for label, members in groups:
            print(f"{label}:")
            for cls in members:
                print(f"  {cls}")
        return 0

    algos = args.algos.split(",") if args.algos else list(DEFAULT_ALGOS)
    models = args.models.split(",") if args.models else list(DEFAULT_MODELS)
    classes = args.classes.split(",") if args.classes else None
    for cls in classes or []:
        if cls not in ALL_CLASSES:
            print(f"unknown fault class {cls!r} "
                  f"(known: {', '.join(ALL_CLASSES)})", file=sys.stderr)
            return 2

    def progress(cell) -> None:
        mark = {"recovered": ".", "degraded": "~", "violated": "X"}
        detail = f"  [{cell.detail}]" if cell.detail else ""
        print(f"{mark[cell.outcome]} {cell.fault:9s} {cell.algo:7s} "
              f"model {cell.model}: {cell.outcome:9s} "
              f"inj={cell.injected:<4d} {cell.elapsed:>8d} cyc{detail}")

    result = run_matrix(
        algos=algos, models=models, classes=classes, seed=args.seed,
        threads=args.threads, iters=args.iters, horizon=args.horizon,
        progress=progress, workers=args.workers or 0,
        fencing=not args.no_fencing,
    )
    counts = result.counts
    print(f"\n{len(result.cells)} cells: "
          f"{counts['recovered']} recovered, "
          f"{counts['degraded']} degraded, "
          f"{counts['violated']} violated")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=1, sort_keys=True)
        print(f"nemesis report: {args.out}")
    if not result.ok:
        for cell in result.violated():
            print(f"VIOLATED {cell.fault}/{cell.algo}/model {cell.model}: "
                  f"{cell.detail}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("tables").set_defaults(fn=cmd_tables)
    sub.add_parser("locks").set_defaults(fn=cmd_locks)

    mb = sub.add_parser("microbench")
    mb.add_argument("--lock", default="lcu",
                    choices=sorted(all_algorithms()))
    mb.add_argument("--model", default="A", choices=["A", "B"])
    mb.add_argument("--threads", type=int, default=16)
    mb.add_argument("--write-pct", type=int, default=100)
    mb.add_argument("--iters", type=int, default=150)
    _add_obs_flags(mb)
    _add_profile_flag(mb)
    _add_fairness_flag(mb)
    mb.set_defaults(fn=cmd_microbench)

    st = sub.add_parser("stm")
    st.add_argument("--variant", default="lcu",
                    choices=_STM_VARIANTS)
    st.add_argument("--structure", default="rb",
                    choices=_STM_STRUCTURES)
    st.add_argument("--model", default="A", choices=["A", "B"])
    st.add_argument("--threads", type=int, default=8)
    st.add_argument("--size", type=int, default=512)
    st.add_argument("--txns", type=int, default=40)
    _add_obs_flags(st)
    st.set_defaults(fn=cmd_stm)

    ap = sub.add_parser("app")
    ap.add_argument("--name", default="fluidanimate",
                    choices=_APPS)
    ap.add_argument("--lock", default="lcu",
                    choices=sorted(all_algorithms()))
    ap.add_argument("--model", default="A", choices=["A", "B"])
    ap.add_argument("--threads", type=int, default=0)
    ap.add_argument("--seeds", type=int, default=3)
    _add_obs_flags(ap)
    _add_fairness_flag(ap)
    ap.set_defaults(fn=cmd_app)

    fig = sub.add_parser("figure")
    fig.add_argument("name", choices=sorted(_FIGURES))
    fig.add_argument("--scale", type=int, default=1)
    _add_obs_flags(fig)
    _add_profile_flag(fig, _FIRST_RUN)
    _add_fairness_flag(fig, _FIRST_RUN)
    fig.set_defaults(fn=cmd_figure)

    rp = sub.add_parser("report")
    rp.add_argument("file", help="run-report JSON produced by --metrics-out")
    rp.set_defaults(fn=cmd_report)

    pf = sub.add_parser(
        "profile",
        help="contention profiling: per-lock wait decomposition, "
             "queue-depth stats, critical path",
    )
    pf.add_argument("--run", default="microbench", choices=["microbench"],
                    help="harness to profile (microbench only for now)")
    pf.add_argument("--lock", default="lcu",
                    choices=sorted(all_algorithms()))
    pf.add_argument("--model", default="A", choices=["A", "B"])
    pf.add_argument("--threads", type=int, default=16)
    pf.add_argument("--write-pct", type=int, default=100)
    pf.add_argument("--iters", type=int, default=150)
    pf.add_argument("--cs-cycles", type=int, default=40,
                    help="critical-section length (cycles) — the latency "
                         "knob regression tests turn")
    pf.add_argument("--seed", type=int, default=1)
    pf.add_argument("--top", type=int, default=5,
                    help="how many critical-path edges to show/export")
    pf.add_argument("--folded-out", metavar="FILE", default=None,
                    help="write folded stacks (flamegraph.pl/speedscope "
                         "collapsed format) here")
    pf.add_argument("--trace-out", metavar="FILE", default=None,
                    help="write phase spans as Chrome trace-event JSON "
                         "(Perfetto-loadable) here")
    pf.add_argument("--metrics-out", metavar="FILE", default=None,
                    help="write a full run report (with profile section) "
                         "here")
    pf.set_defaults(fn=cmd_profile)

    df = sub.add_parser(
        "diff",
        help="diff two run reports; exit 1 on regression with "
             "--fail-on-regression",
    )
    df.add_argument("old", help="baseline run-report JSON")
    df.add_argument("new", help="candidate run-report JSON")
    df.add_argument("--threshold", type=float, default=0.10,
                    metavar="FRACTION",
                    help="relative change below which a quantity is "
                         "'unchanged' (default 0.10)")
    df.add_argument("--fail-on-regression", action="store_true",
                    help="exit 1 if any known-direction quantity "
                         "regressed beyond the threshold")
    df.add_argument("--top", type=int, default=20,
                    help="rows to print per verdict class")
    df.add_argument("--json-out", metavar="FILE", default=None,
                    help="write the machine-readable diff here")
    df.set_defaults(fn=cmd_diff)

    sw = sub.add_parser(
        "sweep",
        help="run a microbench matrix sharded across worker processes "
             "and merge the shards into one deterministic RunReport "
             "(byte-identical to the serial run)",
    )
    _add_matrix_flags(sw, ",".join(DEFAULT_LOCKS))
    sw.add_argument("--seeds", default="1", metavar="CSV",
                    help="comma-separated seed list; every cell runs "
                         "once per seed (default: 1)")
    sw.add_argument("--write-pct", type=int, default=DEFAULT_WRITE_PCT)
    sw.add_argument("--iters", type=int, default=DEFAULT_ITERS,
                    help="lock/unlock iterations per thread")
    _add_workers_flag(sw, "the shards",
                      "core count; 0 or 1 = serial in-process")
    _add_fairness_flag(sw, " to every shard",
                       "its fairness.* counters, histograms and "
                       "watermarks merge into the report metrics")
    sw.add_argument("--verify-serial", action="store_true",
                    help="re-run the sweep serially and fail unless the "
                         "merged reports are byte-identical (the CI "
                         "smoke gate)")
    sw.add_argument("--out", metavar="FILE", default=None,
                    help="write the merged RunReport JSON here")
    sw.set_defaults(fn=cmd_sweep)

    fr = sub.add_parser(
        "fairness",
        help="fairness scorecard: run the pinned lock x model matrix "
             "under the fairness observatory (Jain index, worst "
             "overtake, writer share, p999 wait); --metrics-out writes "
             "a 'fairness' run report",
    )
    fr.add_argument("--quick", action="store_true",
                    help="shrink every cell (fewer threads, shorter "
                         "duration) while keeping the full lock x model "
                         "coverage — the CI smoke configuration")
    _add_matrix_flags(fr, "lcu,lcu_fb,ssb,mcs,ticket,mrsw,tatas",
                      csv_threads=False)
    fr.add_argument("--threads", type=int, default=None,
                    help="threads per cell (default 12; 8 with --quick)")
    fr.add_argument("--write-pct", type=int, default=20,
                    help="writer share of the fixed role split "
                         "(default 20%% — writer minority)")
    fr.add_argument("--duration", type=int, default=None,
                    help="simulated cycles per cell (default 120000; "
                         "40000 with --quick)")
    fr.add_argument("--seed", type=int, default=1)
    fr.add_argument("--slo", type=int, default=None, metavar="CYCLES",
                    help="per-acquire latency target; cells report SLO "
                         "violations and time-in-violation")
    fr.add_argument("--starvation-bound", type=int, default=100_000,
                    metavar="CYCLES",
                    help="watchdog alert threshold: a waiter older than "
                         "this raises a StarvationAlert (default "
                         "100000)")
    fr.add_argument("--metrics-out", metavar="FILE", default=None,
                    help="write the scorecard as a 'fairness' run report "
                         "(JSON) here; gate it with `repro diff OLD NEW "
                         "--fail-on-regression`")
    fr.set_defaults(fn=cmd_fairness)

    ck = sub.add_parser(
        "check",
        help="fuzz lock algorithms under the invariant monitor/oracle",
    )
    ck.add_argument("--lock", default="lcu",
                    choices=sorted(all_algorithms()))
    ck.add_argument("--all", action="store_true",
                    help="check every registered algorithm")
    ck.add_argument("--model", default="all", choices=["A", "B", "T", "all"],
                    help="machine model ('all' = A and B)")
    ck.add_argument("--runs", type=int, default=10,
                    help="fuzz cases per (lock, model) combination")
    ck.add_argument("--seed", type=int, default=0,
                    help="master seed for case generation")
    ck.add_argument("--minimize", action="store_true",
                    help="shrink the first failing case to a minimal "
                         "JSON reproducer")
    ck.add_argument("--save-repro", metavar="FILE", default=None,
                    help="where to write the reproducer JSON")
    ck.add_argument("--replay", metavar="FILE", default=None,
                    help="replay a reproducer JSON instead of fuzzing")
    ck.add_argument("--trace-out", metavar="FILE", default=None,
                    help="write a Chrome trace-event JSON (open spans "
                         "are flushed, not dropped, on a violation)")
    _add_workers_flag(ck, "(lock, model) combinations")
    ck.set_defaults(fn=cmd_check)

    fl = sub.add_parser(
        "faults",
        help="run the nemesis matrix: deterministic fault injection "
             "(fault classes x lock algorithms x machine models)",
    )
    fl.add_argument("--algos", default=None,
                    help="comma-separated algorithm list "
                         "(default: lcu,lcu_fb,mcs,clh,ticket,mrsw)")
    fl.add_argument("--models", default=None,
                    help="comma-separated model list (default: A,B)")
    fl.add_argument("--classes", default=None,
                    help="comma-separated fault classes (default: all "
                         "applicable per algorithm)")
    fl.add_argument("--list-classes", action="store_true",
                    help="print the known fault classes, grouped by "
                         "family, and exit")
    fl.add_argument("--no-fencing", action="store_true",
                    help="sabotage mode: leases are still reclaimed but "
                         "grants carry no enforced fence token, so a "
                         "zombie holder's stale operations succeed "
                         "silently — zombie cells are then *expected* "
                         "to violate (the proof the fences earn their "
                         "keep)")
    fl.add_argument("--seed", type=int, default=0,
                    help="matrix seed (every cell derives from it)")
    fl.add_argument("--threads", type=int, default=6)
    fl.add_argument("--iters", type=int, default=30,
                    help="lock/unlock iterations per thread")
    fl.add_argument("--horizon", type=int, default=12_000,
                    help="fault-plan horizon in cycles")
    _add_workers_flag(fl, "matrix cells")
    fl.add_argument("--out", metavar="FILE", default=None,
                    help="write the full JSON nemesis report here")
    fl.set_defaults(fn=cmd_faults)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
