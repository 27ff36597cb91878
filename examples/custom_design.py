"""Add your own design point — no core edits, just a registration.

The design registry (:mod:`repro.designs`) makes a system design a
*value*: register a :class:`DesignSpec` and it immediately works in
``run_experiment`` / ``run_sweep`` sweeps, scenario contention runs,
LLC ablations and the CLI (``--designs my-design``), with its own
sweep-cache identity.

Two levels are shown here:

1. ``truncate-8`` — a purely parameterized variant of the built-in
   baseline-LLC family (eighth-width approximate lines).  Ten lines,
   all data.
2. ``avr-nodbuf`` — AVR with the decompression buffer ablated *as a
   design point* (baked-in ``avr_options``), so the ablation becomes a
   first-class citizen of sweeps and caches.

Run: ``python examples/custom_design.py``
"""

from repro.designs import BASELINE, DesignSpec, list_designs, register_design
from repro.experiment import ExperimentSpec, run_experiment

# 1. A parameterized variant: register and it exists everywhere.
register_design(DesignSpec(
    name="truncate-8",
    approximator="truncate",
    capacity_model="truncate",
    approx_line_bytes=8,
    doc="Truncation to eighth-width lines (sign+exponent values only).",
))

# 2. A baked-in ablation as a design point of its own.
register_design(DesignSpec(
    name="avr-nodbuf",
    llc="avr",
    approximator="avr",
    avr_options=(("enable_dbuf", False),),
    doc="AVR without the decompression buffer.",
))


def main() -> None:
    print("registered designs:", ", ".join(list_designs()))
    spec = ExperimentSpec(
        workloads=("heat",),
        scales=(0.15,),
        max_accesses_per_core=4000,
        designs=("baseline", "AVR", "avr-nodbuf", "truncate-8"),
    )
    ev = run_experiment(spec).by_workload()["heat"]
    print(f"\nheat (scale 0.15) — normalized to baseline:")
    print(f"{'design':>12} {'error %':>8} {'time':>6} {'traffic':>8} {'MPKI':>6}")
    for design, run in ev.runs.items():
        if design == BASELINE:
            continue
        print(f"{design.name:>12} {run.output_error * 100:8.3f}"
              f" {ev.normalized(design, 'time'):6.2f}"
              f" {ev.normalized(design, 'traffic'):8.2f}"
              f" {ev.normalized(design, 'mpki'):6.2f}")

    avr = ev.runs["AVR"].timing.llc_stats
    nodbuf = ev.runs["avr-nodbuf"].timing.llc_stats
    print(f"\nDBUF hits: AVR {avr.get('req_hit_dbuf', 0):.0f}, "
          f"avr-nodbuf {nodbuf.get('req_hit_dbuf', 0):.0f} "
          "(the baked-in ablation at work)")


if __name__ == "__main__":
    main()
