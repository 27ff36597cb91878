"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands:

* ``evaluate``   — regenerate the paper's tables and figures
* ``workload``   — run one workload under one design and report
* ``scenario``   — co-run a multi-programmed workload mix and report
  per-core slowdown, weighted speedup and shared-LLC pressure
* ``experiment`` — run a declarative experiment spec (TOML/JSON)
* ``designs``    — list the registered design points
* ``ablate``     — run the LLC / compressor ablation studies
* ``overheads``  — print the §4.2 hardware-overhead accounting
* ``plan``       — search the design space for Pareto-optimal
  configurations under an objective, constraints and eval budget
* ``cache``      — inspect and maintain an on-disk result cache
  (``stats`` / ``gc`` / ``verify`` / ``ls``)
* ``check``      — run the repo-invariant static analysis pass
* ``serve``      — run the resident evaluation daemon (shared pool,
  shared cache, cross-client job-unit dedup)
* ``submit``     — send a spec to a running daemon and stream events
* ``status``     — report a running daemon's queue and sessions

``--designs`` / ``--design`` options accept any registered design name
(see ``python -m repro designs``); unknown names fail with close-match
suggestions.  All simulation commands accept ``--jobs N`` to fan the
evaluation grid's job units out over ``N`` worker processes (``1`` =
serial, bit-identical to parallel runs), ``--cache-dir PATH`` to
memoize job results on disk so repeated runs skip completed points,
and ``--trace-store PATH|off`` to control the memory-mapped
composed-trace store (default: ``<cache-dir>/traces`` whenever
``--cache-dir`` is given); warm runs map stored traces instead of
regenerating them.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .common.config import SystemConfig
from .designs import get_design, list_designs, resolve_designs
from .harness import (
    evaluate_all,
    evaluate_workload,
    fig09_execution_time,
    fig11_memory_traffic,
    fig12_amat,
    fig13_mpki,
    format_stacked,
    format_table,
    hardware_overheads,
    run_compressor_ablations,
    run_llc_ablations,
    table3_output_error,
    table4_compression,
)
from .workloads import WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Sequence

    from .designs import DesignSpec
    from .harness.runner import WorkloadEvaluation


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_designs(
    names: "Sequence[str] | None",
    default: "tuple[DesignSpec, ...]",
    ensure_baseline: bool = False,
) -> "tuple[DesignSpec, ...]":
    """Resolve CLI design names through the registry.

    Unknown names surface :func:`repro.designs.get_design`'s
    "did you mean ..." ``ValueError`` (listing every registered
    design) instead of a raw enum ``KeyError``.  ``ensure_baseline``
    prepends the baseline design when absent — the evaluation tables
    normalize against it.
    """
    designs = resolve_designs(names) if names else default
    if ensure_baseline and get_design("baseline") not in designs:
        designs = (get_design("baseline"),) + designs
    return designs


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0)")
    parser.add_argument("--cores", type=_positive_int, default=None,
                        help="simulated cores (default 8; the scenario "
                             "command derives it from the mix)")
    parser.add_argument("--accesses", type=_positive_int, default=50_000,
                        help="trace accesses per core (default 50000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for the sweep engine "
                             "(default 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="on-disk result cache; re-runs skip "
                             "already-computed sweep points")
    parser.add_argument("--trace-store", default=None, metavar="PATH|off",
                        help="memory-mapped composed-trace store; "
                             "default derives <cache-dir>/traces when "
                             "--cache-dir is set, 'off' disables it")


def _emit_json(dest: str, mapping: "dict[str, object]") -> None:
    """Write a ``--json`` payload to stdout (``-``) or a file path."""
    import json
    from pathlib import Path

    payload = json.dumps(mapping, indent=2) + "\n"
    if dest == "-":
        print(payload, end="")
    else:
        Path(dest).write_text(payload)
        print(f"wrote {dest}")


def _print_evaluations(evals: "dict[str, WorkloadEvaluation]") -> None:
    from .harness.experiments import compared_designs

    order = list(evals)
    designs = [d.value for d in compared_designs(evals)]
    print(format_table("Table 3: output error (%)",
                       table3_output_error(evals), "{:.2f}", col_order=order))
    print()
    print(format_table("Table 4: AVR compression",
                       table4_compression(evals), "{:.1f}", col_order=order))
    print()
    print(format_table("Figure 9: execution time (norm.)",
                       fig09_execution_time(evals), "{:.2f}", col_order=designs))
    print()
    print(format_stacked("Figure 11: memory traffic (norm.)",
                         fig11_memory_traffic(evals)))
    print()
    print(format_table("Figure 12: AMAT (norm.)",
                       fig12_amat(evals), "{:.2f}", col_order=designs))
    print()
    print(format_table("Figure 13: LLC MPKI (norm.)",
                       fig13_mpki(evals), "{:.2f}", col_order=designs))


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Run the headline sweep: every design over every workload."""
    from .harness import ALL_DESIGNS

    config = SystemConfig.scaled(num_cores=args.cores or 8)
    names = tuple(args.workloads) if args.workloads else None
    try:
        designs = _parse_designs(args.designs, ALL_DESIGNS, ensure_baseline=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    evals = evaluate_all(
        names=names, config=config, scale=args.scale, seed=args.seed,
        designs=designs, max_accesses_per_core=args.accesses,
        jobs=args.jobs, cache_dir=args.cache_dir,
        trace_store=args.trace_store,
    )
    _print_evaluations(evals)
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    """Sweep one workload across designs and approximation levels."""
    from .harness import ALL_DESIGNS

    config = SystemConfig.scaled(num_cores=args.cores or 8)
    try:
        designs = _parse_designs(args.designs, ALL_DESIGNS, ensure_baseline=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ev = evaluate_workload(
        args.name, config=config, scale=args.scale, seed=args.seed,
        designs=designs, max_accesses_per_core=args.accesses,
        jobs=args.jobs, cache_dir=args.cache_dir,
        trace_store=args.trace_store,
    )
    print(f"{args.name}: footprint {ev.footprint_bytes / 1e6:.1f} MB, "
          f"AVR ratio {ev.avr_compression_ratio:.1f}:1, "
          f"footprint vs baseline {ev.footprint_vs_baseline * 100:.0f}%")
    width = max(16, max(len(d.value) for d in designs))
    header = (f"{'design':>{width}} {'error %':>8} {'time':>6} "
              f"{'traffic':>8} {'AMAT':>6} {'MPKI':>6}")
    print(header)
    for design in designs:
        if design == "baseline" or design not in ev.runs:
            continue
        run = ev.runs[design]
        print(f"{design.value:>{width}} {run.output_error * 100:8.3f}"
              f" {ev.normalized(design, 'time'):6.2f}"
              f" {ev.normalized(design, 'traffic'):8.2f}"
              f" {ev.normalized(design, 'amat'):6.2f}"
              f" {ev.normalized(design, 'mpki'):6.2f}")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    """Evaluate a named multi-programmed scenario mix."""
    from .harness.scenario import evaluate_scenario
    from .scenario import get_scenario, named_scenarios

    if args.mix == "list":
        print("named mixes:")
        for name, scenario in named_scenarios().items():
            print(f"  {name:>18}  {scenario.mix_string()}  "
                  f"({scenario.total_cores} cores, {scenario.placement})")
        print("or compose one: WORKLOAD[*N][@CORES]+... "
              "(e.g. kmeans*2@2+heat@4)")
        return 0

    from .harness.scenario import SCENARIO_DESIGNS

    try:
        scenario = get_scenario(args.mix).scaled(args.scale)
        designs = _parse_designs(args.designs, SCENARIO_DESIGNS)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cores = args.cores or scenario.total_cores
    if cores < scenario.total_cores:
        print(f"error: mix {scenario.name!r} needs {scenario.total_cores} "
              f"cores, --cores gave {cores}", file=sys.stderr)
        return 2
    config = SystemConfig.scaled(num_cores=cores)
    ev = evaluate_scenario(
        scenario, config=config, designs=designs, seed=args.seed,
        max_accesses_per_core=args.accesses,
        jobs=args.jobs, cache_dir=args.cache_dir,
        trace_store=args.trace_store,
    )

    print(f"scenario {ev.name}: {scenario.mix_string()} — "
          f"{scenario.num_instances} instances on {cores} cores, "
          f"footprint {ev.footprint_bytes / 1e6:.1f} MB")
    with_baseline = "baseline" in ev.runs
    summary = {
        design.value: {
            "wspeedup": run.weighted_speedup,
            **({"mix time": ev.normalized_mix_time(design)}
               if with_baseline else {}),
            "LLC infl": run.llc_miss_inflation,
        }
        for design, run in ev.runs.items()
    }
    columns = ["wspeedup"] + (["mix time"] if with_baseline else []) + ["LLC infl"]
    print()
    print(format_table(
        f"Mix summary (weighted speedup, ideal {scenario.num_instances})",
        summary, "{:.3f}", col_order=columns))
    for design, run in ev.runs.items():
        rows = {
            f"{inst.workload}#{inst.index}": {
                "slowdown": inst.slowdown,
                "solo Mcyc": inst.solo_cycles / 1e6,
                "corun Mcyc": inst.corun_cycles / 1e6,
                "solo miss": inst.solo_llc_misses,
                "pressure": inst.pressure_llc_misses,
                "induced": inst.induced_llc_misses,
            }
            for inst in run.instances
        }
        print()
        print(format_table(
            f"{design.value}: per-instance contention",
            rows, "{:.2f}",
            col_order=["slowdown", "solo Mcyc", "corun Mcyc",
                       "solo miss", "pressure", "induced"]))
        for inst in run.instances:
            percore = "  ".join(
                f"c{c}:{s:.2f}"
                for c, s in zip(inst.cores, inst.per_core_slowdown)
            )
            print(f"  {inst.workload}#{inst.index} per-core slowdown: "
                  f"{percore}")
    if args.json:
        from .harness import scenario_evaluation_to_mapping

        _emit_json(args.json, scenario_evaluation_to_mapping(ev))
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    """Run the ablation sweep for one design's variants."""
    config = SystemConfig.scaled(num_cores=args.cores or 8)
    try:
        design = get_design(args.design)
        if not design.consumes_avr_options:
            raise ValueError(
                f"design {design.name!r} cannot consume LLC ablation "
                "options; pick an AVR-family design"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    llc = run_llc_ablations(
        args.name, config=config, scale=args.scale,
        max_accesses_per_core=args.accesses, design=design,
        jobs=args.jobs, cache_dir=args.cache_dir,
    )
    full = llc["full AVR"]
    rows = {
        label: {
            "time": p.cycles / full.cycles,
            "traffic": p.total_bytes / full.total_bytes,
            "AMAT": p.amat_cycles / full.amat_cycles,
        }
        for label, p in llc.items()
    }
    print(format_table(f"LLC ablations on {args.name} (norm. to full AVR)",
                       rows, "{:.2f}", col_order=["time", "traffic", "AMAT"]))
    print()
    comp = run_compressor_ablations(
        args.name, scale=min(args.scale, 0.5), cache_dir=args.cache_dir,
    )
    print(format_table(f"Compressor ablations on {args.name} data", comp,
                       "{:.2f}", col_order=["ratio", "mean_error_pct", "success_pct"]))
    return 0


def cmd_designs(_args: argparse.Namespace) -> int:
    """List the registered cache designs."""
    from .designs import get_design

    print("registered designs:")
    for name in list_designs():
        spec = get_design(name)
        print(f"  {name:>16}  {spec.doc}")
    print("add your own with repro.designs.register_design "
          "(see examples/custom_design.py)")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run a declarative experiment from a spec file."""
    from .experiment import ExperimentSpec, run_experiment

    try:
        spec = ExperimentSpec.from_file(args.spec)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"experiment {spec.name!r} ({spec.content_hash()[:12]}): "
          f"{len(spec.workloads) or 'all'} workload(s), "
          f"{len(spec.scenarios)} scenario(s), designs "
          f"{', '.join(spec.designs)}")
    result = run_experiment(
        spec, jobs=args.jobs, cache_dir=args.cache_dir,
        trace_store=args.trace_store,
    )

    if result.evaluations:
        try:
            evals = result.by_workload()
        except ValueError:
            evals = None
        if evals is not None:
            print()
            _print_evaluations(evals)
        else:
            print()
            for point, ev in result.evaluations.items():
                row = "  ".join(
                    f"{d.value}:{ev.normalized(d, 'time'):.2f}"
                    for d in ev.runs
                    if d != "baseline" and "baseline" in ev.runs
                )
                print(f"{point.workload} scale={point.scale} "
                      f"seed={point.seed}: time {row}")
    for sev in result.scenario_evaluations.values():
        print()
        summary = {
            design.value: {"wspeedup": run.weighted_speedup,
                           "LLC infl": run.llc_miss_inflation}
            for design, run in sev.runs.items()
        }
        print(format_table(
            f"scenario {sev.name} (weighted speedup, ideal "
            f"{sev.scenario.num_instances})",
            summary, "{:.3f}", col_order=["wspeedup", "LLC infl"]))

    stats = result.stats
    print()
    print(f"sweep: {stats.executed} job(s) executed, "
          f"{stats.cache_hits} cache hit(s), {stats.cache_misses} miss(es), "
          f"{stats.cache_stores} stored, "
          f"{stats.traces_mapped} trace(s) mapped, "
          f"{stats.traces_generated} generated")
    if args.json:
        from .harness import experiment_result_to_mapping

        _emit_json(args.json, experiment_result_to_mapping(result))
    if args.expect_cached and stats.executed:
        print(f"error: expected a fully cache-served run but "
              f"{stats.executed} job(s) executed", file=sys.stderr)
        return 1
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Search the design space with the multi-fidelity planner."""
    import dataclasses

    from .planner import PlanSpec, run_plan

    overrides: dict[str, object] = {}
    for attr, key in (
        ("workload", "workload"), ("designs", "designs"),
        ("scales", "thresholds_scales"), ("t2", "t2_thresholds"),
        ("widths", "approx_line_bytes"), ("toggles", "avr_toggles"),
        ("objective", "objective"), ("constraint", "constraints"),
        ("budget", "budget"), ("eta", "eta"),
        ("initial", "initial_candidates"), ("plan_seed", "seed"),
        ("scale", "scale"), ("seed", "trace_seed"),
        ("accesses", "max_accesses_per_core"), ("cores", "num_cores"),
    ):
        value = getattr(args, attr)
        if value is not None:
            overrides[key] = tuple(value) if isinstance(value, list) else value
    try:
        if args.spec:
            spec = dataclasses.replace(PlanSpec.from_file(args.spec), **overrides)
        else:
            spec = PlanSpec(**overrides)  # type: ignore[arg-type]
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = run_plan(
        spec, jobs=args.jobs, cache_dir=args.cache_dir,
        trace_store=args.trace_store,
    )
    stats = result.stats

    budget = spec.budget or "unbounded"
    print(f"plan {spec.name!r} ({spec.content_hash()[:12]}): "
          f"{stats.candidates} candidate(s) on {spec.workload}, "
          f"objective {spec.objective}"
          + (f", s.t. {', '.join(spec.constraints)}" if spec.constraints else "")
          + f", budget {budget}")
    ladder = " -> ".join(
        f"{len(r.outcomes)}@{r.fidelity}" for r in result.rungs
    )
    print(f"rungs (count@accesses/core): {ladder}")
    print()
    if not result.front:
        print("no feasible candidate satisfies the constraints")
    else:
        width = max(16, max(len(o.candidate.label()) for o in result.front))
        print(f"Pareto front ({len(result.front)} of {stats.candidates}, "
              f"best {spec.objective} first):")
        print(f"{'candidate':>{width}} {'traffic':>8} {'time':>6} "
              f"{'error %':>8} {'compr':>6}")
        for outcome in result.recommended:
            m = outcome.metrics
            print(f"{outcome.candidate.label():>{width}}"
                  f" {m['traffic']:8.3f} {m['time']:6.2f}"
                  f" {m['error'] * 100:8.3f} {m['compression']:6.1f}")
    print()
    print(f"evals: {stats.full_fidelity_evals} full-fidelity + "
          f"{stats.low_fidelity_evals} low-fidelity "
          f"(exhaustive grid: {stats.exhaustive_full_evals}; "
          f"{stats.savings:.1f}x fewer full evals); "
          f"{stats.jobs_executed} job(s) executed, "
          f"{stats.cache_hits} cache hit(s)"
          + (f"; surrogate fitted from {stats.surrogate_points} cached "
             f"point(s)" if stats.surrogate_points else ""))

    if args.json:
        _emit_json(args.json, result.to_mapping())
    if args.expect_cached and stats.jobs_executed:
        print(f"error: expected a fully cache-served plan but "
              f"{stats.jobs_executed} job(s) executed", file=sys.stderr)
        return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain an on-disk result cache directory."""
    from pathlib import Path

    from .harness.cache import ResultCache

    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {root} is not a cache directory", file=sys.stderr)
        return 2
    cache = ResultCache(root, read_only=args.action != "gc")

    if args.action == "stats":
        usage = cache.disk_usage()
        print(f"cache {root}:")
        print(f"  entries:   {usage.entries} ({usage.indexed} indexed)")
        print(f"  bytes:     {usage.total_bytes:,} "
              f"({usage.total_bytes / 1e6:.1f} MB)")
        print(f"  shards:    {usage.shards}")
        print(f"  tmp files: {usage.tmp_files}")
        for version, count in sorted(usage.versions.items()):
            print(f"  version {version}: {count} entr(ies)")
        return 0

    if args.action == "ls":
        for key in cache.keys():
            if args.prefix and not key.startswith(args.prefix):
                continue
            print(key)
        return 0

    if args.action == "verify":
        report = cache.verify()
        print(f"cache {root}: {report.entries} entr(ies), "
              f"{report.total_bytes:,} bytes, {report.tmp_files} tmp file(s)")
        for label, keys in (
            ("corrupt", report.corrupt),
            ("phantom (indexed, payload gone)", report.phantom),
            ("unindexed (self-heals on next put/gc)", report.unindexed),
        ):
            if keys:
                print(f"  {label}: {len(keys)}")
                for key in keys[:10]:
                    print(f"    {key}")
                if len(keys) > 10:
                    print(f"    ... and {len(keys) - 10} more")
        if not report.ok:
            print("error: corrupt payload(s) found; 'repro cache gc' "
                  "leaves them (version-keyed entries re-execute "
                  "bit-identically) — remove the listed files to "
                  "reclaim space", file=sys.stderr)
            return 1
        print("  ok")
        return 0

    report = cache.gc(
        max_bytes=args.max_bytes, stale=args.stale,
        tmp_max_age_s=args.tmp_age, dry_run=args.dry_run,
    )
    verb = "would remove" if report.dry_run else "removed"
    print(f"cache {root}: {verb} {report.tmp_removed} tmp file(s), "
          f"{report.stale_removed} stale entr(ies), "
          f"{report.evicted} evicted ({report.bytes_removed:,} bytes); "
          f"kept {report.entries_kept} entr(ies), "
          f"{report.bytes_kept:,} bytes")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident evaluation daemon until SIGTERM/SIGINT."""
    import asyncio

    from .serve.daemon import EvalDaemon

    try:
        daemon = EvalDaemon(
            cache_dir=args.cache_dir,
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def announce(line: str) -> None:
        print(line, flush=True)

    try:
        asyncio.run(daemon.run_until_stopped(announce=announce))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a spec file to a running daemon and stream its events."""
    from .experiment import ExperimentSpec, load_spec_mapping
    from .planner import PlanSpec
    from .serve.client import ServeClient, ServeError

    try:
        mapping = load_spec_mapping(args.spec)
        kind = args.kind
        if kind is None:
            # sniff: an experiment spec first, a plan spec second
            try:
                ExperimentSpec.from_mapping(dict(mapping))
                kind = "experiment"
            except (ValueError, TypeError):
                PlanSpec.from_mapping(dict(mapping))
                kind = "plan"
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        with ServeClient(
            socket_path=args.socket, host=args.host, port=args.port
        ) as client:
            job = client.submit(mapping, kind=kind, priority=args.priority)
            print(f"submitted {job}: {kind} "
                  f"{mapping.get('name', args.spec)!r} "
                  f"(priority {args.priority})")
            if args.detach:
                return 0
            stats: "dict[str, object] | None" = None
            result: "dict[str, object] | None" = None
            launched = joined = 0
            for event in client.events(job):
                name = event.get("event")
                if name == "unit_done":
                    if event.get("launched"):
                        launched += 1
                    else:
                        joined += 1
                    if not args.quiet:
                        verb = "ran" if event.get("launched") else "joined"
                        print(f"  unit {event.get('unit')} {verb}")
                elif name == "stats":
                    stats = event.get("stats")  # type: ignore[assignment]
                elif name == "error":
                    print(f"error: {event.get('error')}", file=sys.stderr)
                    return 1
                else:
                    result = event.get("result")  # type: ignore[assignment]
            executed = 0
            if stats is not None:
                executed = int(
                    stats.get("executed", stats.get("jobs_executed", 0))  # type: ignore[union-attr]
                )
                print(f"sweep: {executed} job(s) executed "
                      f"({launched} launched, {joined} joined in flight), "
                      f"{stats.get('cache_hits', 0)} cache hit(s), "
                      f"{stats.get('units_deduped', 0)} deduped")
            if args.json and result is not None:
                _emit_json(args.json, result)
            if args.expect_cached and executed:
                print(f"error: expected a fully cache-served run but "
                      f"{executed} job(s) executed", file=sys.stderr)
                return 1
    except (ServeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Report a running daemon's sessions, queue and cache rollup."""
    from .serve.client import ServeClient, ServeError

    try:
        with ServeClient(
            socket_path=args.socket, host=args.host, port=args.port
        ) as client:
            snap = client.status()
    except (ServeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json == "-":
        # machine mode: the snapshot alone, parseable from stdout
        _emit_json(args.json, snap)
        return 0
    sched = snap.get("scheduler", {})
    stats = sched.get("stats", {})
    cache = snap.get("cache_stats", {})
    print(f"repro serve @ {snap.get('address')} — "
          f"version {snap.get('version')}, "
          f"up {snap.get('uptime_s', 0.0):.1f}s")
    print(f"scheduler: {sched.get('queue_depth', 0)} queued, "
          f"{sched.get('running', 0)} running, "
          f"{sched.get('workers', 0)} worker(s)")
    print(f"  units: {stats.get('units_launched', 0)} launched, "
          f"{stats.get('units_deduped', 0)} deduped, "
          f"{stats.get('units_completed', 0)} completed, "
          f"{stats.get('units_failed', 0)} failed, "
          f"{stats.get('units_cancelled', 0)} cancelled")
    print(f"cache: {snap.get('cache_entries', 0)} entr(ies); "
          f"{cache.get('hits', 0)} hit(s), {cache.get('misses', 0)} "
          f"miss(es), {cache.get('stores', 0)} store(s)")
    sessions = snap.get("sessions", [])
    print(f"sessions: {snap.get('active_sessions', 0)} active")
    for session in sessions:
        for job in session.get("jobs", []):
            flag = " (cancelling)" if job.get("cancelled") else ""
            print(f"  session {session.get('session')}: job {job.get('job')} "
                  f"{job.get('kind')} {job.get('name')!r} "
                  f"priority {job.get('priority')} — "
                  f"{job.get('units_done')} unit(s) done "
                  f"({job.get('units_launched')} launched){flag}")
    if args.json:
        _emit_json(args.json, snap)
    return 0


def cmd_overheads(_args: argparse.Namespace) -> int:
    """Print the AVR hardware-overhead model (paper \u00a74.2)."""
    o = hardware_overheads()
    print("AVR hardware overheads (paper §4.2):")
    print(f"  CMT + TLB bits per page:    {o['cmt_bits_per_page']:.0f}")
    print(f"  vs an 88-bit TLB entry:     {o['tlb_overhead_factor']:.2f}x")
    print(f"  extra LLC bits per entry:   {o['llc_extra_bits_per_entry']:.0f}")
    print(f"  LLC storage overhead:       {o['llc_extra_kbytes']:.0f} kB "
          f"({o['llc_overhead_fraction'] * 100:.1f}%)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AVR (ICPP 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="regenerate the paper's evaluation")
    p_eval.add_argument("--workloads", nargs="*", choices=sorted(WORKLOADS),
                        help="subset of workloads (default: all)")
    p_eval.add_argument("--designs", nargs="+", metavar="DESIGN", default=None,
                        help="design points to compare, by registry name "
                             "(see 'designs'; default: the five paper designs)")
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_wl = sub.add_parser("workload", help="evaluate one workload")
    p_wl.add_argument("name", choices=sorted(WORKLOADS))
    p_wl.add_argument("--designs", nargs="+", metavar="DESIGN", default=None,
                      help="design points to compare, by registry name "
                           "(see 'designs'; default: the five paper designs)")
    _add_common(p_wl)
    p_wl.set_defaults(func=cmd_workload)

    p_ex = sub.add_parser(
        "experiment",
        help="run a declarative experiment spec (TOML/JSON)",
        description="Load an ExperimentSpec file, run it through the "
                    "sweep engine, and print the evaluation tables. "
                    "Spec-driven runs share the on-disk result cache "
                    "with programmatic sweeps of the same points.",
    )
    p_ex.add_argument("spec", help="path to a .toml or .json experiment spec")
    p_ex.add_argument("--jobs", type=_positive_int, default=None,
                      help="override the spec's worker-process count")
    p_ex.add_argument("--cache-dir", default=None, metavar="PATH",
                      help="override the spec's result-cache directory")
    p_ex.add_argument("--trace-store", default=None, metavar="PATH|off",
                      help="override the spec's trace-store directory "
                           "('off' disables the store)")
    p_ex.add_argument("--expect-cached", action="store_true",
                      help="exit 1 unless every job was served from the "
                           "cache (CI warm-cache assertion)")
    p_ex.add_argument("--json", default=None, metavar="PATH|-",
                      help="also emit the full result as JSON, to a "
                           "file or stdout ('-')")
    p_ex.set_defaults(func=cmd_experiment)

    p_ds = sub.add_parser("designs", help="list the registered design points")
    p_ds.set_defaults(func=cmd_designs)

    p_sc = sub.add_parser(
        "scenario",
        help="co-run a multi-programmed workload mix",
        description="Evaluate a named mix (heat+lbm, kmeans4+bscholes4, "
                    "all7), a mix string (kmeans*2@2+heat@4), or 'list' "
                    "to enumerate the shipped mixes.",
    )
    p_sc.add_argument("mix", help="named mix, mix string, or 'list'")
    p_sc.add_argument("--designs", nargs="+", metavar="DESIGN", default=None,
                      help="designs to compare, by registry name "
                           "(default: baseline + AVR)")
    p_sc.add_argument("--json", default=None, metavar="PATH|-",
                      help="also emit the evaluation as JSON, to a "
                           "file or stdout ('-')")
    _add_common(p_sc)
    p_sc.set_defaults(func=cmd_scenario)

    p_ab = sub.add_parser("ablate", help="run the ablation studies")
    p_ab.add_argument("name", nargs="?", default="heat", choices=sorted(WORKLOADS))
    p_ab.add_argument("--design", default="AVR", metavar="DESIGN",
                      help="AVR-family design to ablate, by registry name "
                           "(default: %(default)s)")
    _add_common(p_ab)
    p_ab.set_defaults(func=cmd_ablate)

    p_ov = sub.add_parser("overheads", help="print §4.2 hardware overheads")
    p_ov.set_defaults(func=cmd_overheads)

    def _add_connect(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--socket", default=None, metavar="PATH",
                            help="Unix socket of the daemon")
        parser.add_argument("--host", default=None,
                            help="daemon host (default 127.0.0.1)")
        parser.add_argument("--port", type=int, default=None,
                            help="daemon TCP port")

    p_sv = sub.add_parser(
        "serve",
        help="run the resident evaluation daemon",
        description="Listen on a Unix socket (--socket) or TCP port "
                    "(--port; 0 picks a free one) for ExperimentSpec/"
                    "PlanSpec submissions from 'repro submit'.  All "
                    "sessions share one process pool, one result "
                    "cache, and one trace store; job units already in "
                    "flight for another client are joined, not "
                    "re-executed.  SIGTERM/SIGINT shut down cleanly.",
    )
    p_sv.add_argument("--socket", default=None, metavar="PATH",
                      help="Unix socket to listen on")
    p_sv.add_argument("--host", default=None,
                      help="TCP bind host (default 127.0.0.1)")
    p_sv.add_argument("--port", type=int, default=None,
                      help="TCP port to listen on (0 = pick a free one)")
    p_sv.add_argument("--workers", type=_positive_int, default=2,
                      help="shared worker processes (default 2)")
    p_sv.add_argument("--cache-dir", required=True, metavar="PATH",
                      help="shared result-cache directory (the trace "
                           "store derives under it)")
    p_sv.set_defaults(func=cmd_serve)

    p_su = sub.add_parser(
        "submit",
        help="submit a spec to a running daemon",
        description="Send an ExperimentSpec or PlanSpec file to a "
                    "'repro serve' daemon and stream its progress "
                    "events.  The daemon substitutes its shared cache "
                    "and executor for the spec's execution settings; "
                    "results are bit-identical to a one-shot "
                    "'repro experiment' of the same spec.",
    )
    p_su.add_argument("spec", help="path to a .toml or .json spec file")
    p_su.add_argument("--kind", choices=("experiment", "plan"), default=None,
                      help="spec flavor (default: sniff from the fields)")
    _add_connect(p_su)
    p_su.add_argument("--priority", type=int, default=0,
                      help="scheduling priority (higher runs first; "
                           "default 0)")
    p_su.add_argument("--wait", dest="detach", action="store_false",
                      default=False,
                      help="stream events until the result arrives "
                           "(default)")
    p_su.add_argument("--detach", dest="detach", action="store_true",
                      help="return right after the daemon accepts "
                           "the job")
    p_su.add_argument("--quiet", action="store_true",
                      help="suppress per-unit progress lines")
    p_su.add_argument("--json", default=None, metavar="PATH|-",
                      help="write the final result mapping as JSON, "
                           "to a file or stdout ('-')")
    p_su.add_argument("--expect-cached", action="store_true",
                      help="exit 1 unless every job was served from "
                           "the shared cache (CI warm assertion)")
    p_su.set_defaults(func=cmd_submit)

    p_st = sub.add_parser(
        "status",
        help="report a running daemon's queue and sessions",
        description="Query a 'repro serve' daemon for queue depth, "
                    "active sessions, per-session unit counts, and "
                    "the shared scheduler/cache stats rollup.",
    )
    _add_connect(p_st)
    p_st.add_argument("--json", default=None, metavar="PATH|-",
                      help="also emit the raw snapshot as JSON")
    p_st.set_defaults(func=cmd_status)

    p_ca = sub.add_parser(
        "cache",
        help="inspect and maintain an on-disk result cache",
        description="Operate on a --cache-dir directory: 'stats' "
                    "summarizes usage from the shard indexes, 'gc' "
                    "sweeps orphaned temp files / purges stale-version "
                    "entries / evicts to a byte budget, 'verify' "
                    "unpickles every payload and cross-checks the "
                    "indexes (exit 1 on corruption), and 'ls' prints "
                    "the committed keys.",
    )
    p_ca.add_argument("action", choices=("stats", "gc", "verify", "ls"))
    p_ca.add_argument("dir", help="cache directory (the runs' --cache-dir)")
    p_ca.add_argument("--max-bytes", type=int, default=None, metavar="N",
                      help="gc: evict oldest entries (LRU by mtime) "
                           "until the survivors fit N bytes")
    p_ca.add_argument("--stale", action="store_true",
                      help="gc: purge entries recorded under a "
                           "different package version (unreadable "
                           "anyway — version is part of every key)")
    p_ca.add_argument("--tmp-age", type=float, default=3600.0,
                      metavar="SECONDS",
                      help="gc: remove orphaned *.tmp files older than "
                           "this (default 3600; guards live writers)")
    p_ca.add_argument("--dry-run", action="store_true",
                      help="gc: report what would go without removing "
                           "anything")
    p_ca.add_argument("--prefix", default=None, metavar="HEX",
                      help="ls: only keys starting with this prefix")
    p_ca.set_defaults(func=cmd_cache)

    p_pl = sub.add_parser(
        "plan",
        help="search the design space (multi-fidelity Pareto planner)",
        description="Search the DesignSpec parameter space for "
                    "configurations optimizing an objective under "
                    "constraints — e.g. minimize DRAM traffic subject "
                    "to an output-error budget — via successive "
                    "halving over trace fidelity plus Pareto-front "
                    "selection.  Every probe is an ordinary sweep job "
                    "unit sharing the --cache-dir result cache, and "
                    "planning is deterministic given the spec and "
                    "--plan-seed.",
    )
    p_pl.add_argument("spec", nargs="?", default=None,
                      help="optional .toml/.json PlanSpec file; flags "
                           "below override its fields")
    p_pl.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    p_pl.add_argument("--designs", nargs="+", metavar="DESIGN", default=None,
                      help="base designs spanning the space, by registry "
                           "name (default: AVR)")
    p_pl.add_argument("--scales", nargs="+", type=float, default=None,
                      metavar="S", help="thresholds_scale variants")
    p_pl.add_argument("--t2", nargs="+", type=float, default=None,
                      metavar="T2", help="T2 error-threshold overrides "
                                         "(T1 = 2*T2)")
    p_pl.add_argument("--widths", nargs="+", type=_positive_int, default=None,
                      metavar="BYTES",
                      help="approx-line-byte widths for truncate designs")
    p_pl.add_argument("--toggles", nargs="+", default=None, metavar="OPT",
                      help="AVR options to toggle off one at a time")
    p_pl.add_argument("--objective", default=None,
                      help="metric to optimize (default traffic)")
    p_pl.add_argument("--constraint", action="append", default=None,
                      metavar="METRIC<=VALUE",
                      help="feasibility bound, repeatable "
                           "(e.g. 'error<=0.05')")
    p_pl.add_argument("--budget", type=int, default=None,
                      help="max full-fidelity evaluations "
                           "(0 = unbounded/exhaustive)")
    p_pl.add_argument("--eta", type=int, default=None,
                      help="halving factor between rungs (default 2)")
    p_pl.add_argument("--initial", type=int, default=None, metavar="N",
                      help="cap on rung-0 candidates (surrogate-seeded)")
    p_pl.add_argument("--plan-seed", type=int, default=None, dest="plan_seed",
                      help="planner RNG seed (default 0)")
    p_pl.add_argument("--scale", type=float, default=None,
                      help="workload size multiplier")
    p_pl.add_argument("--seed", type=int, default=None,
                      help="trace-jitter seed of every evaluation")
    p_pl.add_argument("--accesses", type=_positive_int, default=None,
                      help="full-fidelity trace accesses per core")
    p_pl.add_argument("--cores", type=_positive_int, default=None)
    p_pl.add_argument("--jobs", type=_positive_int, default=None,
                      help="worker processes for the sweep engine")
    p_pl.add_argument("--cache-dir", default=None, metavar="PATH",
                      help="on-disk result cache shared with "
                           "sweeps/experiments of the same points")
    p_pl.add_argument("--trace-store", default=None, metavar="PATH|off")
    p_pl.add_argument("--json", default=None, metavar="PATH|-",
                      help="write the full plan report as JSON "
                           "('-' for stdout)")
    p_pl.add_argument("--expect-cached", action="store_true",
                      help="exit 1 unless every job was served from the "
                           "cache (CI warm-cache assertion)")
    p_pl.set_defaults(func=cmd_plan)

    p_ck = sub.add_parser(
        "check",
        help="run the repo-invariant static analysis pass",
        description="AST-level checks of the repository's correctness "
                    "conventions: RNG/dtype discipline, cache-key "
                    "completeness, picklable job units, engine parity "
                    "and docstring coverage.  Exit 1 on findings.",
    )
    from .analysis.cli import add_check_arguments, cmd_check
    add_check_arguments(p_ck)
    p_ck.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
