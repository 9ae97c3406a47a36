"""Command-line interface: the package's only argument parser.

Subcommands::

    python -m repro simulate --model GMN-Li --dataset RD-5K \
        --platforms CEGMA AWB-GCN --pairs 8
    python -m repro simulate --model GraphSim --dataset RD-B \
        --platforms "CEGMA@bandwidth_gbps=512" CEGMA
    python -m repro profile --model GraphSim --dataset AIDS \
        --pairs 16 --output traces.npz
    python -m repro replay --input traces.npz --platforms CEGMA HyGCN
    python -m repro platforms
    python -m repro serve --quick --metrics --json-out serve.json
    python -m repro serve --queries 64 --database 128 \
        --policy deadline --timeout 2.0
    python -m repro serve --quick --request-trace \
        --window-seconds 0.25 --expo serve.prom --window-log windows.jsonl
    python -m repro obs tail windows.jsonl --prefix search.serve.
    python -m repro experiments fig16 [--full] [--jobs N] [--output FILE]
    python -m repro bench [--quick] [--only emf|harness|search]
    python -m repro simulate --quick --model GMN-Li --dataset AIDS \
        --metrics --trace trace.json
    python -m repro obs show results/obs/..._report.json
    python -m repro obs diff old_report.json new_report.json
    python -m repro obs check results/obs/..._report.json [--update]
    python -m repro obs provenance results/experiments.json
    python -m repro obs dashboard --output dashboard.html
    python -m repro obs baselines
    python -m repro obs bench record BENCH_emf.json BENCH_search.json
    python -m repro obs bench compare [--bench NAME] [--json-out FILE]
    python -m repro obs bench trend [--bench NAME] [--markdown]
    python -m repro validate [--quick] [--only NAME] [--list] [--smoke]

``profile`` + ``replay`` implement the paper's trace-file methodology:
profile a workload once, then simulate any platform from the file.
``--platforms`` accepts registry spec strings — a registered name plus
optional ``@key=value`` overrides (``repro platforms`` lists both).

``--metrics`` / ``--trace`` turn on the :mod:`repro.obs` layer for one
run: counters and spans recorded by the simulator, EMF, and CGC are
written as a schema-versioned RunReport under ``results/obs/`` and a
Perfetto-loadable Chrome trace. ``repro obs`` pretty-prints, validates,
and diffs those reports; ``obs check`` compares a fresh report against
the baseline store and fails on deterministic-counter drift, ``obs
provenance`` validates artifact stamps, and ``obs dashboard`` renders
metric trends as static HTML. ``repro bench`` writes ``BENCH_*.json``
and appends every run to the append-only history under
``results/obs/bench_history/`` (``--history-dir`` or the
``REPRO_BENCH_HISTORY`` env var relocate it; ``off`` disables it);
``obs bench record|compare|trend`` ingests BENCH files, gates the
newest entry (deterministic checks exactly, timings statistically), and
renders changepoint-annotated trends. ``obs diff``, ``obs check`` and
``obs bench compare`` share one comparator (:mod:`repro.obs.regress`).
``serve --request-trace`` joins every response to a per-stage span tree
with SLO budget attribution and tail exemplars; ``--window-seconds``
adds windowed rates/quantiles that ``obs tail`` replays from a RunReport
or ``--window-log`` JSONL file, and ``--expo`` writes a Prometheus-style text exposition. ``--profile``
(on ``simulate`` and
``experiments``) cProfiles the run into collapsed stacks loadable in
speedscope or flamegraph tooling.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.metrics import ResultTable
from .core.api import simulate_traces
from .graphs.datasets import DATASET_NAMES, load_dataset
from .models import MODEL_NAMES, build_model
from .platforms import DEFAULT_PLATFORMS, REGISTRY
from .sim.detailed import DetailedSimulator
from .trace.io import load_traces, save_traces
from .trace.profiler import profile_batches

__all__ = ["main"]


def _platform_spec(text: str) -> str:
    """argparse ``type=`` for ``--platforms``: a valid registry spec."""
    try:
        REGISTRY.parse(text)
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"invalid platform spec {text!r}: {exc}\n"
            f"known platforms: {', '.join(REGISTRY.names())} "
            "(append @key=value,... to override config fields; "
            "run 'python -m repro platforms' for the field list)"
        )
    return text


def _count(text: str) -> int:
    """argparse ``type=`` for counts: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _require_workload(args) -> Optional[str]:
    missing = [
        f"--{name}" for name in ("model", "dataset") if getattr(args, name) is None
    ]
    if missing:
        return f"the following arguments are required: {', '.join(missing)}"
    return None


def _check_describe(args) -> Optional[str]:
    if args.input is None and (args.model is None or args.dataset is None):
        return (
            "describe needs --input FILE (a trace file), or --model and "
            "--dataset (a workload to profile)"
        )
    return None


def _check_serve(args) -> Optional[str]:
    if args.window_log and args.window_seconds is None:
        return "--window-log needs --window-seconds"
    return None


def _check_experiment(args) -> Optional[str]:
    from .experiments.registry import EXPERIMENTS

    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        return (
            f"unknown experiment {args.experiment!r}; known: all, "
            f"{', '.join(sorted(EXPERIMENTS))}"
        )
    return None


def _write_json(path, payload, what: str) -> None:
    """The one ``--json-out`` writer: indented, key-sorted JSON."""
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {what} to {path}")


def _print_results(results: dict) -> None:
    table = ResultTable(
        ["platform", "latency/pair (us)", "pairs/s", "DRAM/pair (KB)", "energy/pair (uJ)"]
    )
    for name, result in results.items():
        table.add_row(
            name,
            result.latency_per_pair * 1e6,
            result.throughput_pairs_per_second,
            result.dram_bytes / max(1, result.num_pairs) / 1024,
            result.energy_joules / max(1, result.num_pairs) * 1e6,
        )
    print(table.render())


def _profile(args) -> List:
    pairs = load_dataset(args.dataset, seed=args.seed, num_pairs=args.pairs)
    model = build_model(
        args.model, input_dim=pairs[0].target.feature_dim, seed=args.seed
    )
    return profile_batches(model, pairs, batch_size=args.batch)


def _cmd_simulate(args) -> int:
    if args.quick:
        from .platforms.runspec import QUICK_BATCH, QUICK_PAIRS

        args.pairs = QUICK_PAIRS
        args.batch = QUICK_BATCH
    if not (args.metrics or args.trace):
        _run_simulate(args)
        return 0

    from .obs import RunReport, metrics_enabled, span, tracing_enabled
    from .platforms import RunSpec

    with metrics_enabled() as registry, tracing_enabled() as tracer:
        with span("simulate_cli"):
            _run_simulate(args)
    if args.trace:
        trace_path = tracer.write(args.trace)
        print(f"wrote Chrome trace ({len(tracer)} events) to {trace_path}")
    spec = RunSpec.make(
        args.model, args.dataset, args.pairs, args.batch, args.seed
    )
    report = RunReport(
        spec=spec,
        metrics=registry,
        tracer=tracer,
        timings=tracer.timings("simulate_cli", ("profile", "simulate")),
    )
    report_path = report.write()
    print(f"wrote RunReport to {report_path}")
    if args.metrics:
        print()
        print(report.render())
    return 0


def _run_simulate(args) -> None:
    from .obs import span

    if args.jobs not in (None, 1) and not (args.detailed or args.config):
        from .core.api import simulate_workload

        results = simulate_workload(
            args.model,
            args.dataset,
            args.platforms,
            num_pairs=args.pairs,
            batch_size=args.batch,
            seed=args.seed,
            jobs=args.jobs,
        )
        mode = f" [{args.jobs} jobs]"
    else:
        with span("profile"):
            traces = _profile(args)
        with span("simulate"):
            if args.detailed:
                results = {}
                for platform in args.platforms:
                    simulator = REGISTRY.build(platform)
                    if hasattr(simulator, "config"):
                        simulator = DetailedSimulator(simulator.config)
                    results[platform] = simulator.simulate_batches(traces)
            else:
                results = simulate_traces(traces, args.platforms)
        if args.config:
            import json

            from .sim.config import HardwareConfig
            from .sim.engine import AcceleratorSimulator

            with open(args.config) as handle:
                custom = HardwareConfig.from_dict(json.load(handle))
            results[custom.name] = AcceleratorSimulator(
                custom
            ).simulate_batches(traces)
        mode = " [detailed mode]" if args.detailed else ""
    print(
        f"{args.model} on {args.dataset} "
        f"({args.pairs} pairs, batch {args.batch}){mode}"
    )
    _print_results(results)
    if args.save:
        _save_artifact(args, results)


def _save_artifact(args, results) -> None:
    from .platforms import RunSpec, default_artifact_path, save_results

    spec = RunSpec.make(
        args.model, args.dataset, args.pairs, args.batch, args.seed
    )
    path = default_artifact_path(spec)
    save_results(results, path, spec=spec)
    print(f"wrote results artifact to {path}")


def _cmd_profile(args) -> int:
    traces = _profile(args)
    save_traces(traces, args.output)
    total_pairs = sum(t.batch.batch_size for t in traces)
    print(f"wrote {len(traces)} batch traces ({total_pairs} pairs) to {args.output}")
    return 0


def _cmd_replay(args) -> int:
    traces = load_traces(args.input)
    results = simulate_traces(traces, args.platforms)
    print(f"replayed {args.input}")
    _print_results(results)
    return 0


def _cmd_describe(args) -> int:
    from .trace.summary import workload_summary

    traces = load_traces(args.input) if args.input else _profile(args)
    summary = workload_summary(traces)
    table = ResultTable(["property", "value"])
    for key, value in summary.items():
        table.add_row(key, value)
    print(table.render())
    return 0


def _cmd_render_schedule(args) -> int:
    from .cgc import SCHEDULERS
    from .cgc.render import render_step_matrix, schedule_summary, schedule_table

    pairs = load_dataset(args.dataset, seed=args.seed, num_pairs=1)
    pair = pairs[0]
    schedule = SCHEDULERS[args.scheme](pair, capacity=args.capacity)
    print(schedule_summary(schedule))
    print()
    print(schedule_table(schedule, pair, max_steps=args.max_steps))
    if args.matrix:
        print()
        print(render_step_matrix(schedule, pair))
    return 0


def _cmd_experiments(args) -> int:
    from .experiments.registry import EXPERIMENTS, run_experiment

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.jobs not in (None, 1):
        # Pre-warm the shared (model, dataset) workloads across worker
        # processes; the experiment runners then hit the memo/disk cache.
        from .experiments.common import (
            DATASET_ORDER,
            MODEL_ORDER,
            prewarm_workloads,
        )

        # Per-dataset sizes: quick mode is uniform, full mode follows the
        # Table II test-set size of each dataset.
        prewarm_workloads(
            [(m, d) for m in MODEL_ORDER for d in DATASET_ORDER],
            DEFAULT_PLATFORMS,
            seed=args.seed,
            workers=args.jobs,
            quick=not args.full,
        )
    collected = {}
    for name in names:
        result = run_experiment(name, quick=not args.full, seed=args.seed)
        print(result.render())
        if args.plot:
            from .experiments.plots import render_plots

            chart = render_plots(result)
            if chart:
                print()
                print(chart)
        print()
        # write_experiment_data JSON-sanitizes (numpy scalars/arrays)
        # at its single choke point, so raw data passes through here.
        collected[name] = {
            "description": result.description,
            "data": result.data,
        }
    if args.output:
        from .experiments.common import write_experiment_data

        path = write_experiment_data(
            collected, args.output, quick=not args.full, seed=args.seed
        )
        print(f"wrote raw data for {len(collected)} experiment(s) to {path}")
    return 0


def _cmd_platforms(args) -> int:
    """List registered platforms and their spec-overridable fields."""
    table = ResultTable(["platform", "kind", "overridable fields"])
    for name in REGISTRY.names():
        entry = REGISTRY.entry(name)
        if entry.configurable:
            fields = ", ".join(REGISTRY.spec_fields(name))
            kind = "accelerator"
        else:
            fields = "-"
            kind = "fixed"
        table.add_row(name, kind, fields)
    print(table.render())
    print(
        "\nSpec strings: NAME or NAME@key=value[,key=value...], e.g. "
        '"CEGMA@bandwidth_gbps=512,num_pes=1024".'
    )
    return 0


def _cmd_obs(args) -> int:
    """Inspect RunReport artifacts: show, validate, or diff."""
    import json

    from .obs import RunReport, compare_reports, validate_report

    if args.obs_command == "show":
        print(RunReport.load(args.report).render())
        return 0
    if args.obs_command == "validate":
        with open(args.report) as handle:
            payload = json.load(handle)
        problems = validate_report(payload)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            return 1
        print(
            f"{args.report}: valid RunReport "
            f"(schema v{payload['schema_version']})"
        )
        return 0
    # The diff is the check's comparison, printed and never gated.
    old, new = RunReport.load(args.old), RunReport.load(args.new)
    print(compare_reports(old, new).render())
    return 0


def _finish_comparison(reports, json_out) -> int:
    """Shared tail of ``obs check`` and ``obs bench compare``: print
    every RegressionReport, optionally write them all as a JSON list,
    and exit 1 if any report failed, else with the highest exit code."""
    for report in reports:
        print(report.render())
        print()
    if json_out:
        _write_json(
            json_out,
            [report.to_dict() for report in reports],
            f"{len(reports)} RegressionReport(s)",
        )
    codes = {report.exit_code for report in reports}
    return 1 if 1 in codes else max(codes)


def _cmd_obs_check(args) -> int:
    """Compare a fresh RunReport against its archived baseline.

    Exit codes: 0 clean (or baseline created with ``--update``),
    1 regressions found, 2 no baseline to compare against.
    """
    from .obs import BaselineStore, RegressionReport, RunReport, compare_reports

    current = RunReport.load(args.report)
    store = BaselineStore(args.baseline_dir)
    if args.baseline:
        baseline = RunReport.load(args.baseline)
        baseline_name = args.baseline
    else:
        if current.spec is None:
            print("cannot check an unkeyed report (no RunSpec) against a store")
            return 2
        baseline = store.latest(current.spec)
        baseline_name = str(store.latest_path(current.spec))
    if baseline is None:
        if args.update:
            path = store.save(current, retain=args.retain)
            print(f"no prior baseline; archived this run as {path}")
            return 0
        print(
            f"no baseline for {current.spec.stem} under {store.root} "
            "(run with --update to create one)"
        )
        result = RegressionReport(subject=current.spec.stem)
    else:
        print(f"baseline: {baseline_name}")
        result = compare_reports(baseline, current, args.timing_tol)
    status = _finish_comparison([result], args.json_out)
    if status == 0 and args.update:
        path = store.save(current, retain=args.retain)
        print(f"archived clean run as new baseline {path}")
    return status


def _cmd_obs_provenance(args) -> int:
    """Inspect and validate the provenance stamp of an artifact."""
    import json

    from .obs import read_stamp, validate_stamp
    from .obs.provenance import render_stamp

    with open(args.artifact) as handle:
        payload = json.load(handle)
    stamp = read_stamp(payload)
    if stamp is None:
        print(f"INVALID: {args.artifact} carries no provenance stamp")
        return 1
    problems = validate_stamp(stamp)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    print(f"{args.artifact}: valid provenance")
    print(render_stamp(stamp))
    return 0


def _cmd_obs_dashboard(args) -> int:
    """Render the static HTML dashboard over the baseline store."""
    from .obs import BaselineStore, BenchHistory, write_dashboard

    store = BaselineStore(args.baseline_dir)
    history = BenchHistory(args.history_dir)
    path = write_dashboard(
        store, args.output, max_points=args.max_points, history=history
    )
    print(
        f"wrote dashboard ({len(store.specs())} workload(s), "
        f"{len(history.benches())} bench histor"
        f"{'y' if len(history.benches()) == 1 else 'ies'}) to {path}"
    )
    return 0


def _cmd_obs_baselines(args) -> int:
    """List archived baselines per workload identity."""
    from .obs import BaselineStore

    store = BaselineStore(args.baseline_dir)
    specs = store.specs()
    if not specs:
        print(f"no baselines under {store.root}")
        return 0
    table = ResultTable(["workload", "baselines", "newest"])
    for key in sorted(specs):
        history = store.history(specs[key])
        table.add_row(
            specs[key].stem,
            len(history),
            history[-1].name if history else "-",
        )
    print(table.render())
    return 0


def _cmd_obs_tail(args) -> int:
    """Render windowed serving telemetry from a file.

    Accepts a RunReport v3 (``--metrics`` + ``--window-seconds``), a
    ``--window-log`` JSONL file, or a JSON list of window snapshots.
    """
    from .obs import read_windows, render_window

    try:
        windows = read_windows(args.source)
    except (OSError, ValueError) as exc:
        print(f"cannot read windows from {args.source}: {exc}")
        return 1
    if not windows:
        # An empty (or zero-window) log is a normal outcome of a short
        # run — e.g. `serve --window-seconds` larger than the run — not
        # an error.
        print(
            f"no windows recorded in {args.source} "
            "(run serve with --window-seconds shorter than the stream?)"
        )
        return 0
    shown = windows if args.windows <= 0 else windows[-args.windows :]
    skipped = len(windows) - len(shown)
    if skipped:
        print(f"... {skipped} older window(s) not shown ...")
    prefix = args.prefix or ""
    for window in shown:
        print(render_window(window, prefix=prefix))
    return 0


def _cmd_bench(args) -> int:
    """Run the microbenchmarks, write ``BENCH_*.json``, and append each
    report to the bench history.

    The history is ``--history-dir``, else the ``REPRO_BENCH_HISTORY``
    env var, else the default store; ``off`` (flag or env) turns
    recording off. Exit 1 when any boolean equivalence check is False.
    """
    import logging
    import os

    from .obs import BenchHistory, configure_logging
    from .perf.bench import bench_emf, bench_harness, bench_search

    # Bench results are the command's whole point: log them at INFO.
    configure_logging(1)
    logger = logging.getLogger("repro.perf.bench")
    reports = []
    if args.only in (None, "emf"):
        reports.append(bench_emf(quick=args.quick, repeats=args.repeats))
    if args.only in (None, "harness"):
        reports.append(bench_harness(quick=args.quick, workers=args.workers))
    if args.only in (None, "search"):
        reports.append(
            bench_search(
                quick=args.quick, repeats=args.repeats, workers=args.workers
            )
        )
    target = args.history_dir or os.environ.get("REPRO_BENCH_HISTORY")
    history = None
    if target is None or target.strip().lower() != "off":
        history = BenchHistory(target)
    failures = 0
    for report in reports:
        path = report.write(args.output_dir)
        logger.info("wrote %s", path)
        if history is not None:
            # Appending happens after all timing is done, so history
            # recording costs the benchmark nothing.
            entry, appended = history.append(report.as_dict())
            logger.info(
                "%s history entry %s to %s",
                "appended" if appended else "already recorded",
                entry.entry_id,
                history.path_for(entry.bench),
            )
        for label, value in report.speedups.items():
            logger.info("  %s: %.2fx", label, value)
        for label, value in report.checks.items():
            logger.info("  check %s: %s", label, value)
            # Boolean checks are equivalence assertions (batched vs
            # serial, cached vs uncached); a False one fails the run so
            # CI's bench smoke gates on them.
            if value is False:
                failures += 1
    if failures:
        logger.error("%d equivalence check(s) failed", failures)
        return 1
    return 0


def _cmd_obs_bench(args) -> int:
    """The benchmark-history surface: record, compare, trend.

    ``record`` ingests BENCH_*.json files (idempotent — re-recording
    the same payload is a no-op). ``compare`` gates the newest (or a
    supplied candidate) entry per bench against its latest
    config-matching predecessor; exit codes follow ``obs check``:
    0 clean, 1 deterministic check drift, 2 statistical timing
    regression or no comparable baseline. ``trend`` prints each
    metric's history with changepoints marked.
    """
    import json

    from .obs import (
        BenchHistory,
        compare_history,
        render_markdown_table,
        trend_report,
    )
    from .obs.analytics import render_trend
    from .obs.history import HistoryEntry

    history = BenchHistory(args.history_dir)
    if args.bench_command == "record":
        status = 0
        for path in args.files:
            try:
                entry, appended = history.record_file(path)
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"cannot record {path}: {exc}")
                status = 1
                continue
            verb = "recorded" if appended else "already recorded"
            print(
                f"{verb} {path} as {entry.bench}/{entry.entry_id} "
                f"under {history.root}"
            )
        return status

    if args.bench_command == "compare":
        candidates = None
        if args.candidate:
            with open(args.candidate) as handle:
                entry = HistoryEntry.from_bench_report(json.load(handle))
            candidates = {entry.bench: entry}
            benches = [entry.bench]
        else:
            benches = [args.bench] if args.bench else None
        comparisons = compare_history(
            history, benches=benches, candidates=candidates
        )
        if not comparisons:
            print(f"no bench history under {history.root}")
            return 2
        return _finish_comparison(comparisons, args.json_out)

    # trend
    if args.markdown:
        print(render_markdown_table(history))
        return 0
    benches = [args.bench] if args.bench else history.benches()
    if not benches:
        print(f"no bench history under {history.root}")
        return 2
    reports = []
    for name in benches:
        entries = history.read(name)
        report = trend_report(entries, window=args.window)
        reports.append(report)
        print(render_trend(report))
        print()
    if args.json_out:
        payload = {
            "schema_version": 1,
            "kind": "repro-bench-trend-report",
            "trends": reports,
        }
        _write_json(args.json_out, payload, "trend report")
    return 0


def _cmd_validate(args) -> int:
    """Run the differential/invariant validation checks.

    Exit codes follow ``obs check``: 0 all pass, 1 divergences found,
    2 usage error (unknown check name).
    """
    from .obs.metrics import metrics_enabled
    from .validate import all_checks, get_check, mutation_smoke, run_checks

    if args.list:
        for check in all_checks():
            pair = f"  [{check.pair[0]} vs {check.pair[1]}]" if check.pair else ""
            print(f"{check.name:32s} {check.kind:12s} {check.description}{pair}")
        return 0
    names = args.only if args.only else None
    if names is not None:
        try:
            for name in names:
                get_check(name)
        except KeyError as exc:
            print(exc.args[0])
            return 2
    exit_status = 0
    with metrics_enabled() as registry:
        if args.smoke:
            # Mutation smoke: prove every selected check can fail.
            smoke_rows = []
            for check in [get_check(n) for n in names] if names else all_checks():
                outcomes = mutation_smoke(check.name, quick=args.quick)
                if not outcomes:
                    print(f"UNPROVEN {check.name}: no mutators registered")
                    exit_status = 1
                for mutator, tripped in outcomes.items():
                    verdict = "tripped" if tripped else "MISSED"
                    print(f"{verdict:8s} {check.name} :: {mutator}")
                    smoke_rows.append(
                        {
                            "check": check.name,
                            "mutator": mutator,
                            "tripped": tripped,
                        }
                    )
                    if not tripped:
                        exit_status = 1
            payload = {
                "schema_version": 1,
                "kind": "validate_smoke_report",
                "quick": args.quick,
                "mutations": smoke_rows,
            }
        else:
            results = run_checks(names, quick=args.quick)
            for result in results:
                print(
                    f"{result.status.upper():5s} {result.name} "
                    f"({result.duration_s:.2f}s): {result.detail}"
                )
                if not result.ok:
                    exit_status = 1
            passed = sum(1 for result in results if result.ok)
            print(f"{passed}/{len(results)} checks passed")
            payload = {
                "schema_version": 1,
                "kind": "validate_report",
                "quick": args.quick,
                "results": [result.to_dict() for result in results],
            }
        payload["counters"] = {
            name: value
            for name, value in registry.as_dict().get("counters", {}).items()
            if name.startswith("validate.")
        }
    if args.json_out:
        _write_json(args.json_out, payload, "validation report")
    return exit_status


def _cmd_serve(args) -> int:
    """Drive a synthetic query stream through the serving pipeline.

    The Section III-A workload end to end: admission queue, batch
    scheduler, sharded execution, ranking — with serving counters and
    p50/p99 latency surfaced through :mod:`repro.obs`.
    """
    import json
    from contextlib import ExitStack

    from .core.api import serve_query_stream
    from .obs import (
        RunReport,
        Tracer,
        metrics_enabled,
        render_tree,
        tracing_enabled,
        write_exposition,
    )
    from .obs.provenance import stamp_payload
    from .platforms import RunSpec

    if args.quick:
        args.queries = 8
        args.database = 16
        args.batch = 4

    with ExitStack() as stack:
        window_sink = None
        if args.window_log:
            window_log = stack.enter_context(open(args.window_log, "w"))

            def window_sink(window):
                json.dump(window.to_dict(), window_log, sort_keys=True)
                window_log.write("\n")
                window_log.flush()

        # Metrics stay on unconditionally: the latency histogram
        # behind the p50/p99 stats lives in the registry.
        # --metrics controls whether a RunReport artifact is
        # written; its timings are a view of the serve_cli span.
        # The tracer is made active (tracing the pipeline) only
        # under --trace, so --metrics alone adds no per-request work.
        registry = stack.enter_context(metrics_enabled())
        tracer = Tracer()
        if args.trace:
            stack.enter_context(tracing_enabled(tracer))
        with tracer.span("serve_cli"):
            outcome = serve_query_stream(
                args.model,
                args.dataset,
                num_queries=args.queries,
                database_size=args.database,
                database_unique=args.database_unique,
                distinct_queries=args.distinct,
                top_k=args.top_k,
                policy=args.policy,
                max_batch_queries=args.batch,
                num_shards=args.shards,
                workers=args.workers,
                retrieval=args.retrieval,
                max_queue_depth=args.queue_depth,
                timeout_seconds=args.timeout,
                seed=args.seed,
                request_tracing=args.request_trace,
                window_seconds=args.window_seconds,
                on_window=window_sink,
            )
    stats = outcome["stats"]
    config = outcome["config"]
    print(
        f"{config['model']} on {config['dataset']}: served "
        f"{int(stats['served'])}/{config['num_queries']} queries over a "
        f"{config['database_size']}-graph database "
        f"[policy={config['policy']}, retrieval={config['retrieval']}]"
    )
    table = ResultTable(["stat", "value"])
    for key in sorted(stats):
        table.add_row(key, stats[key])
    print(table.render())
    if args.trace:
        trace_path = tracer.write(args.trace)
        print(f"wrote Chrome trace ({len(tracer)} events) to {trace_path}")
    recorder = outcome.get("recorder")
    exemplars = outcome.get("exemplars")
    windows = list(outcome.get("windows") or [])
    exemplar_dicts = exemplars.as_dicts() if exemplars is not None else []
    if args.request_trace and exemplars is not None:
        slowest = exemplars.slowest()
        if slowest:
            worst = slowest[0]
            print(
                f"slowest request {worst.request_id}: "
                f"{worst.latency_seconds * 1e3:.3f} ms"
            )
            if worst.tree is not None:
                print(render_tree(worst.tree))
    if args.window_log:
        print(
            f"wrote {len(windows)} window snapshot(s) to {args.window_log}"
        )
    if args.expo:
        window = recorder.latest() if recorder is not None else None
        write_exposition(registry, args.expo, window=window)
        print(f"wrote Prometheus exposition to {args.expo}")
    report_path = None
    spec = RunSpec.make(
        args.model, args.dataset, args.queries, args.batch, args.seed
    )
    if args.metrics:
        report = RunReport(
            spec=spec,
            metrics=registry,
            tracer=tracer if args.trace else None,
            timings=tracer.timings("serve_cli"),
            windows=windows,
            exemplars=exemplar_dicts,
        )
        report_path = report.write()
        print(f"wrote RunReport to {report_path}")
    if args.json_out:
        payload = {
            "schema_version": 1,
            "kind": "serve_report",
            "config": config,
            "stats": stats,
            "report_path": None if report_path is None else str(report_path),
        }
        stamp_payload(
            payload,
            spec=spec,
            metrics=registry.as_dict(),
            generator="repro serve",
        )
        _write_json(args.json_out, payload, "serve stats")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CEGMA reproduction: simulate GMN workloads and "
        "regenerate the paper's evaluation.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more logging from repro.* loggers (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only log errors (overrides --verbose)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Options shared by several subcommands, each declared once.
    # --model/--dataset are required per subcommand by a ``check``.
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument("--model", choices=MODEL_NAMES)
    workload.add_argument("--dataset", choices=DATASET_NAMES)
    workload.add_argument("--pairs", type=_count, default=8)
    workload.add_argument("--batch", type=_count, default=8)
    workload.add_argument("--seed", type=int, default=0)
    platforms_option = argparse.ArgumentParser(add_help=False)
    platforms_option.add_argument(
        "--platforms",
        nargs="+",
        type=_platform_spec,
        default=list(DEFAULT_PLATFORMS),
        metavar="SPEC",
        help="platform names or spec strings such as "
        '"CEGMA@bandwidth_gbps=512" (see: python -m repro platforms)',
    )
    history_option = argparse.ArgumentParser(add_help=False)
    history_option.add_argument(
        "--history-dir",
        default=None,
        metavar="DIR",
        help="bench history root (default: results/obs/bench_history; "
        "repro bench also reads the REPRO_BENCH_HISTORY env var, and "
        "'off' disables its recording)",
    )
    store_option = argparse.ArgumentParser(add_help=False)
    store_option.add_argument(
        "--baseline-dir",
        default=None,
        metavar="DIR",
        help="baseline store root (default: results/obs/baselines)",
    )
    json_option = argparse.ArgumentParser(add_help=False)
    json_option.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write this command's report as JSON",
    )
    trace_option = argparse.ArgumentParser(add_help=False)
    trace_option.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Perfetto-loadable Chrome trace of the run",
    )

    simulate = subparsers.add_parser(
        "simulate",
        help="profile a workload and simulate platforms",
        parents=[workload, platforms_option, trace_option],
    )
    simulate.add_argument(
        "--save",
        action="store_true",
        help="also write the results as a JSON artifact under results/",
    )
    simulate.add_argument(
        "--detailed",
        action="store_true",
        help="per-window-step simulation for accelerator platforms",
    )
    simulate.add_argument(
        "--config",
        help="JSON HardwareConfig file to simulate as an extra platform",
    )
    simulate.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for batch-aligned chunked simulation",
    )
    simulate.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test workload size (overrides --pairs/--batch)",
    )
    simulate.add_argument(
        "--metrics",
        action="store_true",
        help="collect obs counters and print + save a RunReport",
    )
    simulate.add_argument(
        "--profile",
        metavar="FILE",
        help="cProfile the run; write collapsed stacks (speedscope/"
        "flamegraph format) to FILE",
    )
    simulate.set_defaults(handler=_cmd_simulate, check=_require_workload)

    serve = subparsers.add_parser(
        "serve",
        help="drive a synthetic query stream through the serving pipeline",
        parents=[json_option, trace_option],
    )
    serve.add_argument("--model", choices=MODEL_NAMES, default="GMN-Li")
    serve.add_argument("--dataset", choices=DATASET_NAMES, default="AIDS")
    serve.add_argument(
        "--queries", type=_count, default=16, help="stream length"
    )
    serve.add_argument(
        "--database", type=_count, default=32, help="database size (graphs)"
    )
    serve.add_argument(
        "--database-unique",
        type=int,
        default=None,
        help="distinct graphs in the database; byte-identical clones "
        "fill the rest (default: all distinct)",
    )
    serve.add_argument(
        "--distinct",
        type=int,
        default=None,
        help="distinct query graphs in the stream (repeats model hot "
        "queries; default min(queries, 8))",
    )
    serve.add_argument("--top-k", type=_count, default=5)
    serve.add_argument(
        "--policy",
        choices=("fifo", "deadline", "size_bucketed"),
        default="fifo",
        help="batch scheduling policy",
    )
    serve.add_argument(
        "--retrieval",
        choices=("flat", "sketch"),
        default="flat",
        help="candidate retrieval: flat scores the whole database per "
        "batch; sketch prunes to an EMF/WL MinHash candidate set first "
        "and reranks it exactly",
    )
    serve.add_argument(
        "--batch",
        type=int,
        default=8,
        help="max distinct queries per execution batch",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="database shards per query (default: worker count)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="executor worker processes (clamped to CPU count)",
    )
    serve.add_argument("--queue-depth", type=int, default=1024)
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request deadline in seconds",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test stream size (8 queries, 16-graph database)",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="also write a RunReport artifact with serving counters",
    )
    serve.add_argument(
        "--request-trace",
        action="store_true",
        help="per-request span trees + stage budget attribution + "
        "tail exemplars (the slowest request's tree is printed)",
    )
    serve.add_argument(
        "--window-seconds",
        type=float,
        default=None,
        metavar="SEC",
        help="record windowed counter rates and latency quantiles on "
        "this interval (see: repro obs tail)",
    )
    serve.add_argument(
        "--window-log",
        metavar="FILE",
        help="append each closed window as a JSONL line (needs "
        "--window-seconds)",
    )
    serve.add_argument(
        "--expo",
        metavar="FILE",
        help="write a Prometheus-style text exposition of the final "
        "registry (plus the latest window's quantiles)",
    )
    serve.set_defaults(handler=_cmd_serve, check=_check_serve)

    profile = subparsers.add_parser(
        "profile",
        help="profile a workload into a trace file",
        parents=[workload],
    )
    profile.add_argument("--output", required=True)
    profile.set_defaults(handler=_cmd_profile, check=_require_workload)

    replay = subparsers.add_parser(
        "replay",
        help="simulate platforms from a trace file",
        parents=[platforms_option],
    )
    replay.add_argument("--input", required=True)
    replay.set_defaults(handler=_cmd_replay)

    platforms = subparsers.add_parser(
        "platforms",
        help="list registered platforms and their spec-string fields",
    )
    platforms.set_defaults(handler=_cmd_platforms)

    describe = subparsers.add_parser(
        "describe",
        help="summarize a workload (profiled or from a trace file)",
        parents=[workload],
    )
    describe.add_argument("--input", help="trace file instead of profiling")
    describe.set_defaults(handler=_cmd_describe, check=_check_describe)

    render = subparsers.add_parser(
        "render-schedule",
        help="print a window schedule's step table (Fig. 8 style)",
    )
    render.add_argument("--dataset", choices=DATASET_NAMES, default="AIDS")
    render.add_argument(
        "--scheme",
        choices=("single", "double", "joint", "coordinated"),
        default="coordinated",
    )
    render.add_argument("--capacity", type=int, default=8)
    render.add_argument("--max-steps", type=int, default=20)
    render.add_argument(
        "--matrix",
        action="store_true",
        help="also print the annotated adjacency matrix (Fig. 12 style)",
    )
    render.add_argument("--seed", type=int, default=0)
    render.set_defaults(handler=_cmd_render_schedule)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate evaluation figures/tables"
    )
    experiments.add_argument("experiment")
    experiments.add_argument("--full", action="store_true")
    experiments.add_argument("--plot", action="store_true",
                             help="render ASCII charts where available")
    experiments.add_argument(
        "--output", help="write the experiments' raw data as JSON"
    )
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="pre-warm shared workloads across this many worker processes",
    )
    experiments.add_argument(
        "--profile",
        metavar="FILE",
        help="cProfile the harness; write collapsed stacks to FILE",
    )
    experiments.set_defaults(
        handler=_cmd_experiments, check=_check_experiment
    )

    bench = subparsers.add_parser(
        "bench",
        help="run the EMF/harness/search microbenchmarks "
        "(writes BENCH_*.json and appends to the bench history)",
        parents=[history_option],
    )
    bench.add_argument("--quick", action="store_true")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--workers", type=int, default=None)
    bench.add_argument("--output-dir", default=".")
    bench.add_argument(
        "--only", choices=("emf", "harness", "search"), default=None
    )
    bench.set_defaults(handler=_cmd_bench)

    obs = subparsers.add_parser(
        "obs", help="inspect, validate, and diff RunReport artifacts"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_show = obs_sub.add_parser(
        "show", help="pretty-print one RunReport JSON file"
    )
    obs_show.add_argument("report")
    obs_show.set_defaults(handler=_cmd_obs)
    obs_validate = obs_sub.add_parser(
        "validate",
        help="schema-check a RunReport (exit 1 on problems; CI smoke)",
    )
    obs_validate.add_argument("report")
    obs_validate.set_defaults(handler=_cmd_obs)
    obs_diff = obs_sub.add_parser(
        "diff",
        help="compare two RunReports the way obs check does, never failing",
    )
    obs_diff.add_argument("old")
    obs_diff.add_argument("new")
    obs_diff.set_defaults(handler=_cmd_obs)

    obs_check = obs_sub.add_parser(
        "check",
        help="compare a RunReport against its baseline; exit 1 on "
        "regressions (deterministic counters exact, timings in band)",
        parents=[store_option, json_option],
    )
    obs_check.add_argument("report")
    obs_check.add_argument(
        "--baseline",
        metavar="FILE",
        help="explicit baseline RunReport (skips the store lookup)",
    )
    obs_check.add_argument(
        "--timing-tol",
        type=float,
        default=None,
        metavar="FRAC",
        help="fail stages slower than baseline by more than FRAC "
        "(e.g. 0.25 = +25%%); default: timings reported as info only",
    )
    obs_check.add_argument(
        "--update",
        action="store_true",
        help="archive the report as the new baseline (after a clean "
        "check, or as the first baseline for its spec)",
    )
    obs_check.add_argument(
        "--retain",
        type=int,
        default=20,
        help="baselines kept per workload when archiving (default 20)",
    )
    obs_check.set_defaults(handler=_cmd_obs_check)

    obs_prov = obs_sub.add_parser(
        "provenance",
        help="inspect/validate the provenance stamp of a JSON artifact",
    )
    obs_prov.add_argument("artifact")
    obs_prov.set_defaults(handler=_cmd_obs_provenance)

    obs_dash = obs_sub.add_parser(
        "dashboard",
        help="render a static HTML dashboard of baseline metric trends",
        parents=[store_option, history_option],
    )
    obs_dash.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="output path (default: results/obs/dashboard.html)",
    )
    obs_dash.add_argument(
        "--max-points",
        type=int,
        default=30,
        help="baselines per workload shown in trend lines",
    )
    obs_dash.set_defaults(handler=_cmd_obs_dashboard)

    obs_baselines = obs_sub.add_parser(
        "baselines",
        help="list archived baselines per workload",
        parents=[store_option],
    )
    obs_baselines.set_defaults(handler=_cmd_obs_baselines)

    obs_bench = obs_sub.add_parser(
        "bench",
        help="benchmark history: record runs, gate regressions, "
        "render trends",
    )
    obs_bench_sub = obs_bench.add_subparsers(
        dest="bench_command", required=True
    )

    obs_bench_record = obs_bench_sub.add_parser(
        "record",
        help="ingest BENCH_*.json files into the history "
        "(idempotent; exit 1 on unreadable files)",
        parents=[history_option],
    )
    obs_bench_record.add_argument(
        "files", nargs="+", help="BENCH_*.json payloads to ingest"
    )
    obs_bench_record.set_defaults(handler=_cmd_obs_bench)

    obs_bench_compare = obs_bench_sub.add_parser(
        "compare",
        help="gate the newest history entry per bench against its "
        "config-matching predecessor (exit 1: check drift, "
        "exit 2: timing regression or no baseline)",
        parents=[history_option, json_option],
    )
    obs_bench_compare.add_argument(
        "--bench",
        default=None,
        metavar="NAME",
        help="gate only this bench (default: all recorded benches)",
    )
    obs_bench_compare.add_argument(
        "--candidate",
        default=None,
        metavar="FILE",
        help="gate this BENCH_*.json payload instead of the newest "
        "recorded entry (the file is not appended)",
    )
    obs_bench_compare.set_defaults(handler=_cmd_obs_bench)

    obs_bench_trend = obs_bench_sub.add_parser(
        "trend",
        help="print each metric's history with changepoints marked",
        parents=[history_option, json_option],
    )
    obs_bench_trend.add_argument(
        "--bench",
        default=None,
        metavar="NAME",
        help="only this bench (default: all recorded benches)",
    )
    obs_bench_trend.add_argument(
        "--window",
        type=int,
        default=5,
        help="sliding changepoint window (default 5 entries)",
    )
    obs_bench_trend.add_argument(
        "--markdown",
        action="store_true",
        help="print the README speedup table generated from the "
        "newest entries instead",
    )
    obs_bench_trend.set_defaults(handler=_cmd_obs_bench)

    obs_tail = obs_sub.add_parser(
        "tail",
        help="render windowed serving telemetry (RunReport v3, a "
        "--window-log JSONL file, or a JSON window list)",
    )
    obs_tail.add_argument("source", help="file holding window snapshots")
    obs_tail.add_argument(
        "--windows",
        type=int,
        default=5,
        metavar="N",
        help="newest windows shown (default 5; 0 = all)",
    )
    obs_tail.add_argument(
        "--prefix",
        default=None,
        metavar="P",
        help="only metrics whose name starts with P "
        "(e.g. search.serve.)",
    )
    obs_tail.set_defaults(handler=_cmd_obs_tail)

    validate = subparsers.add_parser(
        "validate",
        help="cross-check redundant implementation pairs and invariants",
        parents=[json_option],
    )
    validate.add_argument(
        "--quick",
        action="store_true",
        help="deterministic tier only (fixed seeds; what CI gates on) — "
        "default also runs the derandomized hypothesis drivers",
    )
    validate.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only the named check (repeatable; see --list)",
    )
    validate.add_argument(
        "--list",
        action="store_true",
        help="list registered checks and exit",
    )
    validate.add_argument(
        "--smoke",
        action="store_true",
        help="mutation smoke: perturb each implementation and assert "
        "the guarding check trips",
    )
    validate.set_defaults(handler=_cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # Usage rules argparse cannot state: exit 2 before any work starts.
    check = getattr(args, "check", None)
    problem = check(args) if check is not None else None
    if problem:
        parser.error(problem)
    from .obs.logging import configure_logging

    configure_logging(-1 if args.quiet else args.verbose)
    profile_path = getattr(args, "profile", None)
    if profile_path:
        from .obs.profiling import profiled

        with profiled(profile_path):
            status = args.handler(args)
        print(f"wrote collapsed-stack profile to {profile_path}")
        return status
    return args.handler(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piping long output into `head`
        import os

        # Reopen stdout on /dev/null so the interpreter's shutdown
        # flush doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
