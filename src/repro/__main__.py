"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands:

* ``experiment`` — run an evaluation: a declarative spec file
  (TOML/JSON), flags, or both (each flag overrides that spec field);
  prints the paper's tables and figures, and for scenario mixes the
  per-core slowdown, weighted speedup and shared-LLC pressure
* ``list``       — list the registered designs, workloads and named mixes
* ``ablate``     — run the LLC / compressor ablation studies
* ``overheads``  — print the §4.2 hardware-overhead accounting
* ``cache``      — inspect and maintain an on-disk result cache
  (``stats`` / ``gc`` / ``verify`` / ``ls``)
* ``check``      — run the repo-invariant static analysis pass
* ``serve``      — run the resident evaluation daemon (shared pool,
  shared cache, cross-client job-unit dedup)
* ``submit``     — send a spec to a running daemon and stream events
* ``status``     — report a running daemon's queue and sessions

``--designs`` / ``--design`` options accept any registered design name
(see ``python -m repro list``); unknown names fail with close-match
suggestions.  The simulation commands accept ``--jobs N`` to fan the
evaluation grid's job units out over ``N`` worker processes (``1`` =
serial, bit-identical to parallel runs) and ``--cache-dir PATH`` to
memoize job results on disk so repeated runs skip completed points.
A cache directory also holds the memory-mapped trace store,
``<cache-dir>/m<MODEL_VERSION>/traces``, of the composed traces' timing
front ends; warm runs map a stored front end instead of regenerating
and re-filtering its trace.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any

from .common.config import SystemConfig
from .designs import BASELINE, get_design, list_designs
from .harness import (
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
    from .harness.runner import WorkloadEvaluation
    from .harness.scenario import ScenarioEvaluation


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _flag_overrides(
    args: argparse.Namespace, fields: "tuple[tuple[str, str], ...]"
) -> dict[str, object]:
    """``{spec field: value}`` for each ``(flag, field)`` flag given."""
    overrides: dict[str, object] = {}
    for attr, key in fields:
        value = getattr(args, attr)
        if value is not None:
            overrides[key] = tuple(value) if isinstance(value, list) else value
    return overrides


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
    """Tables 3-4, then the normalized figures when a baseline ran."""
    from .harness.experiments import compared_designs

    order = list(evals)
    print(format_table("Table 3: output error (%)",
                       table3_output_error(evals), "{:.2f}", col_order=order))
    print()
    print(format_table("Table 4: AVR compression",
                       table4_compression(evals), "{:.1f}", col_order=order))
    print()
    if not all(BASELINE in ev.runs for ev in evals.values()):
        print("(normalized figures omitted: no 'baseline' design to "
              "normalize against)")
        return
    designs = [d.name for d in compared_designs(evals)]
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


def _print_scenario(sev: "ScenarioEvaluation") -> None:
    """Contention report of one mix: summary, per instance, per core."""
    scenario = sev.scenario
    print(f"scenario {sev.name}: {scenario.mix_string()} — "
          f"{scenario.num_instances} instances on {sev.num_cores} cores, "
          f"footprint {sev.footprint_bytes / 1e6:.1f} MB")
    with_baseline = BASELINE in sev.runs
    summary = {
        design.name: {
            "wspeedup": run.weighted_speedup,
            **({"mix time": sev.normalized_mix_time(design)}
               if with_baseline else {}),
            "LLC infl": run.llc_miss_inflation,
        }
        for design, run in sev.runs.items()
    }
    columns = ["wspeedup"] + (["mix time"] if with_baseline else []) + ["LLC infl"]
    print()
    print(format_table(
        f"Mix summary (weighted speedup, ideal {scenario.num_instances})",
        summary, "{:.3f}", col_order=columns))
    for design, run in sev.runs.items():
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
            f"{design.name}: per-instance contention",
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


def cmd_ablate(args: argparse.Namespace) -> int:
    """Run the ablation sweep for one design's variants."""
    config = SystemConfig.scaled(num_cores=args.cores)
    try:
        design = get_design(args.design)
        if design.llc != "avr":
            raise ValueError(
                f"design {design.name!r} cannot consume LLC ablation "
                "options; pick an AVR-family design"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    llc = run_llc_ablations(
        args.name, config=config, scale=args.scale,
        max_accesses_per_core=args.accesses, seed=args.seed, design=design,
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
        args.name, scale=min(args.scale, 0.5), seed=args.seed,
        cache_dir=args.cache_dir,
    )
    print(format_table(f"Compressor ablations on {args.name} data", comp,
                       "{:.2f}", col_order=["ratio", "mean_error_pct", "success_pct"]))
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    """List the registered designs, the workloads and the named mixes."""
    from .scenario import named_scenarios

    print("registered designs:")
    for name in list_designs():
        print(f"  {name:>18}  {get_design(name).doc}")
    print("add your own with repro.designs.register_design "
          "(see examples/custom_design.py)")
    print()
    print("workloads:")
    for name, cls in WORKLOADS.items():
        doc = (cls.__doc__ or "").strip().splitlines()
        print(f"  {name:>18}  {doc[0] if doc else ''}")
    print()
    print("named mixes:")
    for name, scenario in named_scenarios().items():
        print(f"  {name:>18}  {scenario.mix_string()}  "
              f"({scenario.total_cores} cores, {scenario.placement})")
    print("or compose one: WORKLOAD[*N][@CORES]+... "
          "(e.g. kmeans*2@2+heat@4)")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run an evaluation from a spec file, flags, or both."""
    import dataclasses

    from .experiment import ExperimentSpec, run_experiment

    overrides = _flag_overrides(args, (
        ("workloads", "workloads"), ("scenarios", "scenarios"),
        ("designs", "designs"), ("cores", "num_cores"),
        ("accesses", "max_accesses_per_core"),
    ))
    if args.scale is not None:
        overrides["scales"] = (args.scale,)
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    try:
        base = ExperimentSpec.from_file(args.spec) if args.spec else ExperimentSpec()
        spec = dataclasses.replace(base, **overrides)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads = len(spec.workloads) or ("no" if spec.scenarios else "all")
    print(f"experiment {spec.name!r} ({spec.content_hash()[:12]}): "
          f"{workloads} workload(s), "
          f"{len(spec.scenarios)} scenario(s), designs "
          f"{', '.join(spec.designs)}")
    result = run_experiment(spec, jobs=args.jobs, cache_dir=args.cache_dir)

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
                    f"{d.name}:{ev.normalized(d, 'time'):.2f}"
                    for d in ev.runs
                    if d != BASELINE and BASELINE in ev.runs
                )
                print(f"{point.workload} scale={point.scale} "
                      f"seed={point.seed}: time {row}")
    for sev in result.scenario_evaluations.values():
        print()
        _print_scenario(sev)

    stats = result.stats
    print()
    print(f"sweep: {stats.executed} job(s) executed, "
          f"{stats.cache_hits} cache hit(s), {stats.cache_misses} miss(es), "
          f"{stats.cache_stores} stored, "
          f"{stats.frontends_mapped} front end(s) mapped, "
          f"{stats.frontends_computed} computed")
    if args.json:
        from .harness import experiment_result_to_mapping

        _emit_json(args.json, experiment_result_to_mapping(result))
    if args.expect_cached and stats.executed:
        print(f"error: expected a fully cache-served run but "
              f"{stats.executed} job(s) executed", file=sys.stderr)
        return 1
    return 0


def _print_head(lines: list[str], limit: int = 10) -> None:
    """Print the first ``limit`` of ``lines``, indented, and how many more."""
    for line in lines[:limit]:
        print(f"    {line}")
    if len(lines) > limit:
        print(f"    ... and {len(lines) - limit} more")


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain an on-disk result cache directory."""
    from pathlib import Path

    from .harness.cache import ResultCache
    from .trace.store import trace_store_usage

    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {root} is not a cache directory", file=sys.stderr)
        return 2
    cache = ResultCache(root, read_only=args.action != "gc")

    if args.action == "stats":
        usage = cache.disk_usage()
        print(f"cache {root}:")
        print(f"  entries:   {usage.entries}")
        print(f"  bytes:     {usage.total_bytes:,} "
              f"({usage.total_bytes / 1e6:.1f} MB)")
        print(f"  shards:    {usage.shards}")
        print(f"  tmp files: {usage.tmp_files}")
        traces = trace_store_usage(cache.root / "traces")
        print(f"  traces:    {traces.front_ends} front end(s), "
              f"{traces.total_bytes:,} bytes ({cache.root / 'traces'})")
        print(f"  stale:     {len(usage.stale)} dir(s), "
              f"{sum(usage.stale.values()):,} bytes "
              f"(removed by 'repro cache gc --stale')")
        _print_head([f"{name}/ {size:,} bytes"
                     for name, size in sorted(usage.stale.items())])
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
        if not report.ok:
            print(f"  corrupt: {len(report.corrupt)}")
            _print_head(report.corrupt)
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
          f"{report.stale_removed} stale dir(s), "
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
    from .serve.client import ServeClient, ServeError

    try:
        mapping = load_spec_mapping(args.spec)
        # reject a bad spec here, before connecting to the daemon
        ExperimentSpec.from_mapping(mapping)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        with ServeClient(
            socket_path=args.socket, host=args.host, port=args.port
        ) as client:
            job = client.submit(mapping, priority=args.priority)
            print(f"submitted {job}: experiment "
                  f"{mapping.get('name', args.spec)!r} "
                  f"(priority {args.priority})")
            if args.detach:
                return 0
            stats: "dict[str, Any] | None" = None
            result: "dict[str, Any] | None" = None
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
                    stats = event.get("stats")
                elif name == "error":
                    print(f"error: {event.get('error')}", file=sys.stderr)
                    return 1
                else:
                    result = event.get("result")
            executed = 0
            if stats is not None:
                executed = int(stats.get("executed", 0))
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
                  f"{job.get('name')!r} "
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

    p_ex = sub.add_parser(
        "experiment",
        help="run an evaluation (spec file and/or flags)",
        description="Run an evaluation through the sweep engine and "
                    "print the paper's tables and figures, plus a "
                    "contention report per scenario mix.  The grid "
                    "comes from an ExperimentSpec file (TOML/JSON), "
                    "from the flags, or both: each flag given overrides "
                    "that field of the spec (or of the defaults: all "
                    "seven workloads x the five paper designs on 8 "
                    "cores).  Runs share the on-disk result cache with "
                    "programmatic sweeps of the same points.",
    )
    p_ex.add_argument("spec", nargs="?", default=None,
                      help="optional .toml/.json experiment spec; flags "
                           "below override its fields")
    p_ex.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                      default=None,
                      help="workloads to evaluate (default: all seven, "
                           "or none when only mixes are given)")
    p_ex.add_argument("--scenarios", nargs="+", metavar="MIX", default=None,
                      help="multi-programmed mixes to co-run: a named mix "
                           "or a mix string like kmeans*2@2+heat@4 "
                           "(see 'list')")
    p_ex.add_argument("--designs", nargs="+", metavar="DESIGN", default=None,
                      help="design points to compare, by registry name "
                           "(see 'list'; default: the five paper designs)")
    p_ex.add_argument("--scale", type=float, default=None,
                      help="workload size multiplier (default 1.0)")
    p_ex.add_argument("--seed", type=int, default=None,
                      help="workload and trace seed (default 0)")
    p_ex.add_argument("--cores", type=_positive_int, default=None,
                      help="simulated cores (default 8, or as many as "
                           "the widest mix needs)")
    p_ex.add_argument("--accesses", type=_positive_int, default=None,
                      help="trace accesses per core (default 50000)")
    p_ex.add_argument("--jobs", type=_positive_int, default=None,
                      help="worker processes for the sweep engine "
                           "(default: the spec's, else 1 = serial)")
    p_ex.add_argument("--cache-dir", default=None, metavar="PATH",
                      help="on-disk result cache; re-runs skip "
                           "already-computed sweep points")
    p_ex.add_argument("--expect-cached", action="store_true",
                      help="exit 1 unless every job was served from the "
                           "cache (CI warm-cache assertion)")
    p_ex.add_argument("--json", default=None, metavar="PATH|-",
                      help="also emit the full result as JSON, to a "
                           "file or stdout ('-')")
    p_ex.set_defaults(func=cmd_experiment)

    p_ls = sub.add_parser(
        "list", help="list the registered designs, workloads and named mixes"
    )
    p_ls.set_defaults(func=cmd_list)

    p_ab = sub.add_parser("ablate", help="run the ablation studies")
    p_ab.add_argument("name", nargs="?", default="heat", choices=sorted(WORKLOADS))
    p_ab.add_argument("--design", default="AVR", metavar="DESIGN",
                      help="AVR-family design to ablate, by registry name "
                           "(default: %(default)s)")
    p_ab.add_argument("--scale", type=float, default=1.0,
                      help="workload size multiplier (default 1.0)")
    p_ab.add_argument("--cores", type=_positive_int, default=8,
                      help="simulated cores (default 8)")
    p_ab.add_argument("--accesses", type=_positive_int, default=50_000,
                      help="trace accesses per core (default 50000)")
    p_ab.add_argument("--seed", type=int, default=0,
                      help="workload and trace seed (default 0)")
    p_ab.add_argument("--jobs", type=_positive_int, default=1,
                      help="worker processes for the sweep engine "
                           "(default 1 = serial)")
    p_ab.add_argument("--cache-dir", default=None, metavar="PATH",
                      help="on-disk result cache; re-runs skip "
                           "already-computed sweep points")
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
                    "(--port; 0 picks a free one) for ExperimentSpec "
                    "submissions from 'repro submit'.  All "
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
        description="Send an ExperimentSpec file to a "
                    "'repro serve' daemon and stream its progress "
                    "events.  The daemon substitutes its shared cache "
                    "and executor for the spec's execution settings; "
                    "results are bit-identical to a one-shot "
                    "'repro experiment' of the same spec.",
    )
    p_su.add_argument("spec", help="path to a .toml or .json spec file")
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
        description="Operate on a --cache-dir directory, whose stores "
                    "live in its m<MODEL_VERSION>/ model directory: "
                    "'stats' summarizes the result entries, the "
                    "front-end entries of its traces/ store and the "
                    "stale directories beside it, 'gc' sweeps orphaned "
                    "temp files / removes stale directories / evicts "
                    "result entries to a byte budget, 'verify' "
                    "unpickles every result payload (exit 1 on "
                    "corruption), and 'ls' prints the committed keys.",
    )
    p_ca.add_argument("action", choices=("stats", "gc", "verify", "ls"))
    p_ca.add_argument("dir", help="cache directory (the runs' --cache-dir)")
    p_ca.add_argument("--max-bytes", type=int, default=None, metavar="N",
                      help="gc: evict oldest entries (LRU by mtime) "
                           "until the survivors fit N bytes")
    p_ca.add_argument("--stale", action="store_true",
                      help="gc: remove stale directories — other "
                           "m*/ model directories and the older flat "
                           "layout (no current key reads them)")
    p_ca.add_argument("--tmp-age", type=float, default=3600.0,
                      metavar="SECONDS",
                      help="gc: remove orphaned *.tmp files, trace "
                           "store included, older than this (default "
                           "3600; guards live writers)")
    p_ca.add_argument("--dry-run", action="store_true",
                      help="gc: report what would go without removing "
                           "anything")
    p_ca.add_argument("--prefix", default=None, metavar="HEX",
                      help="ls: only keys starting with this prefix")
    p_ca.set_defaults(func=cmd_cache)

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
