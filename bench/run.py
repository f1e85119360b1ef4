"""Serial benchmark of the arrcomp CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh
interpreters, one command at a time (see ``measure.py``).  Set-up is
timed in SETUP_RUNS interpreters and reported as the median; the workload
itself runs in one more.  Outputs are checked afterwards against
independent computations (``checks.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (calibrated ``setup_s`` and ``wall_s``, ``peak_rss_mb``);
with ``--trace 1`` they are the per-layer self times and counts of one
traced round, and the spans are written under bench/results/.  The line
before it carries the raw seconds and kernel times behind the calibrated
figures.  Without ``--workload`` every workload runs in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150

LAYER_METRICS = {
    # metric name -> self-time key of tracer.Tracer.self_times
    "fileformat.parse_s": "fileformat.parse",
    "fileformat.serialize_s": "fileformat.serialize",
    "arrangement.poset_s": "arrangement.poset",
    "linalg.rref_s": "linalg.rref",
    "linalg.snf_s": "linalg.snf",
    "lattice.mobius_s": "lattice.mobius",
    "lattice.fiber_type_s": "lattice.fiber_type",
    "topology.order_complex_s": "topology.order_complex",
    "topology.homology_s": "topology.homology",
    "topology.gm_wedge_s": "topology.gm_wedge",
    "surgery.tables_s": "surgery.tables",
    "surgery.spf_s": "surgery.spf",
    "library.other_s": "library.other",
    "cli.overhead_s": "cli.run",
}
COUNT_METRICS = (
    "arrangement.flats",
    "linalg.rref_calls",
    "linalg.snf_entries",
    "topology.faces",
)


class BenchError(Exception):
    pass


def _child(mode: str, workload: str, seed: int, seconds: int, workdir: Path) -> dict:
    argv = [sys.executable, str(BENCH / "measure.py"), mode, workload, str(seed),
            str(seconds), str(workdir)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} interpreter timed out after {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"{mode} interpreter exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Runs one workload; returns (result line, detail dict)."""
    if not (ROOT / "src" / "arrcomp" / "cli.py").is_file():
        raise BenchError(f"no arrcomp sources under {ROOT / 'src'}; run from a source checkout")
    spec = inputs.build(workload, seed)
    workdir = BENCH / "_work" / str(os.getpid())
    try:
        setups = [_child("setup", workload, seed, seconds, workdir)["setup"]
                  for _ in range(SETUP_RUNS - 1)]
        report = _child("trace" if trace else "run", workload, seed, seconds, workdir)
        setups.append(report["setup"])
        if trace:
            results = BENCH / "results"
            results.mkdir(exist_ok=True)
            shutil.move(workdir / "trace.json", results / f"trace-{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    import checks  # sympy is imported only after the measured interpreters ended

    reasons = checks.check_ops(spec, report["ops"])
    failed_ops = [(op, why) for op, why in zip(report["ops"], reasons) if why]
    unexpected = [(op[0], why) for op, why in failed_ops if why != checks.KNOWN_FAULT]
    rounds = report["rounds"]
    per_round = len(spec.ops)
    total_rounds = len(rounds) + len(report.get("traced_rounds", ()))
    correct = not unexpected and report["mismatches"] == 0 and len(reasons) == per_round

    detail = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "wall_rounds_s": [r[1] for r in rounds],
        "commands_per_round": per_round,
        "wall_raw_s": median([r[0] for r in rounds]),
        "wall_kernel_ms": median([r[2] for r in rounds]) * 1e3,
        "setup_raw_s": median([s[0] for s in setups]),
        "setup_kernel_ms": median([s[2] for s in setups]) * 1e3,
        "mismatches_between_rounds": report["mismatches"],
        "unexpected_failures": unexpected[:5],
    }
    if trace:
        traced = report["traced_rounds"]
        traced_cal = median([r[1] for r in traced])
        untraced_cal = median([r[1] for r in rounds])
        scale = sum(r[1] for r in traced) / sum(r[0] for r in traced)
        raw = {k: v / len(traced) for k, v in report["self_times"].items()}
        metrics = {
            name: {"value": raw[key] * scale, "unit": "s"} for name, key in LAYER_METRICS.items()
        }
        counts = {k: v / len(traced) for k, v in report["counts"].items()}
        for name in COUNT_METRICS:
            metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
        poset_s = raw["arrangement.poset_inclusive"] * scale
        metrics["arrangement.flats_per_s"] = {
            "value": counts.get("arrangement.flats", 0) / poset_s if poset_s else 0.0,
            "unit": "1/s",
        }
        metrics["trace.overhead_s"] = {"value": traced_cal - untraced_cal, "unit": "s"}
        detail.update(
            traced_wall_s=traced_cal,
            untraced_wall_s=untraced_cal,
            traced_wall_raw_s=median([r[0] for r in traced]),
            layer_raw_s={name: raw[key] for name, key in LAYER_METRICS.items()},
            missing_functions=report["missing"],
        )
    else:
        metrics = {
            "setup_s": {"value": median([s[1] for s in setups]), "unit": "s"},
            "wall_s": {"value": median([r[1] for r in rounds]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    line = {
        "correct": correct,
        "attempted": per_round * total_rounds,
        "failed": len(failed_ops) * total_rounds,
        "metrics": metrics,
    }
    return line, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workloads = [args.workload] if args.workload else list(inputs.WORKLOADS)
    for workload in workloads:
        try:
            line, detail = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(detail))
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
