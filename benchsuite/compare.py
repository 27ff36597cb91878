"""Compare two sets of benchmark runs against the bounds in ``BENCHMARK.json``.

Usage::

    python3 benchsuite/suite.py compare A1.txt A2.txt ... -- B1.txt B2.txt ...

Each file holds the standard output of one or more untraced runs of
``suite.py`` (a ``benchsuite: workload=...`` header, then the result
line).  ``A`` is the base (the parent commit), ``B`` the change; the
i-th run of each side form a pair, so run them alternately.  Every
(workload, end-to-end metric) gets one row:

* ``regressed``: B's median is worse than A's by more than the bound;
* ``better``: B wins at least 9 of 10 pairs and the medians differ by
  more than A's quartile distance;
* ``unresolved``: a side's quartile spread is wider than the bound and
  the runs do not separate (some run of B is not better than every
  run of A, or not worse than every run of A);
* ``no-worse``: otherwise.

Exits 1 when any row is regressed or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths: list[str]) -> dict[str, list[dict[str, float]]]:
    """``{workload: [metrics of each untraced run]}`` from suite outputs."""
    runs: dict[str, list[dict[str, float]]] = {}
    for path in paths:
        workload = None
        for line in Path(path).read_text().splitlines():
            if line.startswith("benchsuite: workload="):
                fields = dict(part.split("=", 1) for part in line.split()[1:])
                workload = fields["workload"] if fields["trace"] == "0" else None
            elif line.startswith("{") and workload is not None:
                result = json.loads(line)
                runs.setdefault(workload, []).append(
                    {name: m["value"] for name, m in result["metrics"].items()}
                )
                workload = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def classify(
    base: list[float], change: list[float], better: str, bound: float
) -> tuple[str, int, int]:
    """Verdict for one (workload, metric), with pair wins and pairs."""
    sign = 1.0 if better == "lower" else -1.0
    aq1, amed, aq3 = quartiles(base)
    bq1, bmed, bq3 = quartiles(change)
    worse = sign * (bmed - amed) / amed
    spread = max((aq3 - aq1) / amed, (bq3 - bq1) / bmed)
    pairs = list(zip(base, change))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if spread > bound:
        if all(sign * (b - a) < 0 for a in base for b in change):
            return "better", wins, len(pairs)
        if worse > bound and all(sign * (b - a) > 0 for a in base for b in change):
            return "regressed", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if worse > bound:
        return "regressed", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and sign * (amed - bmed) > aq3 - aq1:
        return "better", wins, len(pairs)
    return "no-worse", wins, len(pairs)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: suite.py compare A.txt ... -- B.txt ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    base, change = load_runs(argv[:split]), load_runs(argv[split + 1:])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failing = 0
    print(f"{'workload':14s} {'metric':12s} {'verdict':10s} "
          f"{'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} "
          f"{'B/A':>7s} wins")
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in base or workload not in change:
            print(f"{workload:14s} (missing from one side)")
            failing += 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [run[name] for run in base[workload]]
            b = [run[name] for run in change[workload]]
            verdict, wins, pairs = classify(a, b, metric["better"], metric["bound"])
            failing += verdict in ("regressed", "unresolved")
            aq1, amed, aq3 = quartiles(a)
            bq1, bmed, bq3 = quartiles(b)
            unit = metric["unit"]
            print(
                f"{workload:14s} {name:12s} {verdict:10s} "
                f"{f'{amed:.4g} [{aq1:.4g}, {aq3:.4g}] {unit}':>30s} "
                f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}] {unit}':>30s} "
                f"{bmed / amed:7.3f} {wins}/{pairs}"
            )
    print(f"A: {sum(len(v) for v in base.values())} runs, "
          f"B: {sum(len(v) for v in change.values())} runs; "
          f"B/A is B's median over A's median (base = A)")
    return 1 if failing else 0
