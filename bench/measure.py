"""The measured side of one workload: a fresh interpreter, one client, one
command at a time.

    python3 bench/measure.py setup|run|trace WORKLOAD SEED SECONDS WORKDIR

``setup`` times the set-up alone (import ``arrcomp``, generate the inputs,
write them to WORKDIR and load them with the library) and exits.  ``run``
then repeats the workload's fixed command list in whole rounds until
SECONDS have passed.  ``trace`` alternates an untraced and a traced round
until SECONDS have passed and writes the spans to WORKDIR/trace.json.
Every command is ``arrcomp.cli.run(argv)`` called in-process with stdout
and stderr captured.  The result is one JSON object on stdout; the
parent process checks the outputs.
"""

from __future__ import annotations

import sys
import time

from clock import Clock

clock = Clock()
clock.sample()  # warm-up: the first kernel run in an interpreter is slower
_setup_first = clock.sample()
clock.start()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import arrcomp.cli as cli  # noqa: E402
from arrcomp.fileformat import load_arrangement_file  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402


def set_up(workload: str, seed: int, workdir: Path):
    w = inputs.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inp in w.inputs:
        path = workdir / f"{inp.name}.arr"
        path.write_text(inp.text, encoding="utf-8")
        paths[inp.name] = str(path)
        load_arrangement_file(paths[inp.name])
    return [op.argv(paths.__getitem__) for op in w.ops]


def peak_rss_mb() -> float:
    """High-water resident set size of this process.  ``VmHWM`` starts
    afresh at exec; ``ru_maxrss`` would also count the parent's memory at
    the time it started this interpreter."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_command(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception:  # a crash is an outcome the checks report
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def one_round(commands: list, tracer=None) -> tuple:
    first = clock.sample()
    results = []
    for argv in commands:
        if tracer is None:
            results.append(run_command(argv))
            continue
        span = tracer.open("cli.run")
        results.append(run_command(argv))
        tracer.close(span)
    return clock.region(first, clock.sample()), results


def main(argv: list) -> int:
    mode, workload, seed, seconds, workdir = argv
    commands = set_up(workload, int(seed), Path(workdir))
    report = {"setup": clock.region(_setup_first, clock.sample())}
    if mode == "setup":
        clock.stop()
        print(json.dumps(report))
        return 0

    rounds, traced_rounds = [], []
    first_results = None
    mismatches = 0
    tracer = Tracer(clock) if mode == "trace" else None
    deadline = time.perf_counter() + float(seconds)
    while True:
        timing, results = one_round(commands)
        rounds.append(timing)
        if first_results is None:
            first_results = results
            # peak memory of set-up plus one round, whatever the round count
            peak_mb = peak_rss_mb()
        mismatches += sum(r != f for r, f in zip(results, first_results))
        if tracer is not None:
            tracer.install()
            try:
                timing, results = one_round(commands, tracer)
            finally:
                tracer.uninstall()
            traced_rounds.append(timing)
            mismatches += sum(r != f for r, f in zip(results, first_results))
        if time.perf_counter() >= deadline:
            break
    clock.stop()

    report.update(
        rounds=rounds,
        ops=[[cmd, *result] for cmd, result in zip(commands, first_results)],
        mismatches=mismatches,
        peak_rss_mb=peak_mb,
    )
    if tracer is not None:
        report.update(
            traced_rounds=traced_rounds,
            self_times=tracer.self_times(),
            counts=tracer.counts,
            missing=tracer.missing,
        )
        with open(Path(workdir) / "trace.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
