"""The repository's end-to-end benchmark: one command, four workloads.

Two ways in:

* **One measured run** — ``run.py --workload NAME --seed N --seconds S
  --trace 0|1``: everything happens in this process and the last line
  of standard output is one JSON object (``correct``, ``attempted``,
  ``failed``, ``metrics``).  ``--trace 0`` reports the end-to-end
  metrics with the shims off; ``--trace 1`` makes one untraced and one
  traced round and reports the per-layer ledger.
* **The whole protocol** — ``run.py [--workload NAME] [--seed N]
  [--repeats 3] [--traced] [--out FILE]``: every (workload, repeat) is a
  fresh subprocess of the first form, so ``setup_s`` and ``peak_rss_mb``
  are per workload; prints medians over the repeats and fails when
  repeats of one seed disagree on the result digest.

Exits non-zero on any failed check.  See README.md beside this file.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spec  # noqa: E402

DETAIL_PREFIX = "E2E_DETAIL "
#: A run sets up at least this many times, so ``setup_s`` is a median.
MIN_SETUPS = 3


def load_workload(name: str, seed: int, scale: float):
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, scale)


# ----------------------------------------------------------------------
# One measured run (this process)
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool, scale: float) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    import harness
    import layers  # imports every layer of the program
    from trace import Recorder

    workload = load_workload(name, seed, scale)
    import_s = time.perf_counter() - _PROCESS_START

    setups: list[float] = []
    walls: list[float] = []
    outcomes: list[harness.Outcome] = []
    problems: list[str] = []
    before: dict[str, float] = {}  # the program's tallies when the traced run starts

    def set_up() -> None:
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)

    def one_round(recorder=None):
        set_up()
        if recorder is not None:
            recorder.reset()  # set-up and warm-up are not the timed region
            before.update(layers.program_tallies(workload))
        started = time.perf_counter()
        workload.run(recorder)
        wall = time.perf_counter() - started
        if recorder is not None:
            recorder.uninstall()  # judging the round is not the timed region either
        return wall, workload.outcome()

    # Untraced rounds: shims are not installed at all.
    while True:
        wall, outcome = one_round()
        walls.append(wall)
        outcomes.append(outcome)
        workload.teardown()
        if trace or sum(walls) >= seconds:
            break
    while not trace and len(setups) < MIN_SETUPS:
        set_up()
        workload.teardown()

    first = outcomes[0]
    digests = [harness.digest(o.digest_rows) for o in outcomes]
    for index, outcome in enumerate(outcomes):
        problems += [f"round {index}: {p}" for p in outcome.problems]
    if len(set(digests)) > 1:
        problems.append(f"rounds of one seed disagree on result_digest: {digests}")

    # Percentiles per round, then the median round: a burst of host noise
    # that slows one round moves neither.
    samples = sum(len(o.all_latencies) for o in outcomes)

    def op_wall_ms(q: float) -> float:
        return 1e3 * statistics.median(
            harness.percentile(o.all_latencies, q) for o in outcomes
        )

    guards = {
        "failed_share": first.failed_share,
        **{guard: first.sim.get(guard, 0.0) for guard, *_ in spec.GUARDS[1:]},
    }
    end_to_end = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": statistics.median(
            o.completed / w for o, w in zip(outcomes, walls)
        ),
        "op_wall_p50_ms": op_wall_ms(0.50),
        "op_wall_p95_ms": op_wall_ms(0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "rounds": len(walls),
        "timed_wall_s": walls,
        "import_s": import_s,
        "setup_rounds_s": setups,
        "latency_samples": samples,
        "result_digest": digests[0],
        "end_to_end": end_to_end,
        "guards": guards,
    }

    per_layer: dict[str, float] = {}
    if trace:
        recorder = Recorder()
        layers.install(recorder)
        try:
            traced_wall, traced = one_round(recorder)
            started = time.perf_counter()
            export_bytes = sum(len(bp.trace_export()) for bp in workload.blueprints)
            export_s = time.perf_counter() - started if workload.blueprints else 0.0
            tallies = layers.since(before, layers.program_tallies(workload))
            problems += [f"traced round: {p}" for p in traced.problems]
            problems += [
                f"counter cross-check: {p}"
                for p in layers.cross_check(recorder, tallies, workload.fleet_result)
            ]
            if harness.digest(traced.digest_rows) != digests[0]:
                problems.append("the traced round's result_digest differs from the untraced")
            per_layer = layers.metrics(
                recorder, workload, tallies, traced, first,
                traced_wall, walls[0], export_s, export_bytes,
            )
            workload.teardown()
        finally:
            recorder.uninstall()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{name}.json"
        recorder.write(
            str(trace_path),
            {"workload": name, "seed": seed, "scale": scale, "traced_wall_s": traced_wall},
        )
        detail.update(per_layer=per_layer, traced_wall_s=traced_wall, trace=str(trace_path))

    units = {m[0]: m[1] for m in (*spec.END_TO_END, *spec.PER_LAYER)}
    reported = per_layer if trace else end_to_end
    print(f"# {name}  seed={seed}  scale={scale:g}  rounds={len(walls)}  "
          f"ops/round={first.attempted} ({workload.op}s)  latency n={samples}")
    for metric, value in {**end_to_end, **guards, **per_layer}.items():
        print(f"{metric:44s} {value:16.6f} {units[metric]}")
    print(f"{'result_digest':44s} {digests[0]}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.errored for o in outcomes),
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in reported.items()
        },
    }))
    return 1 if problems else 0


# ----------------------------------------------------------------------
# The whole protocol (subprocess per run)
# ----------------------------------------------------------------------
def run_unit(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """One measured run in a fresh process; its detail record."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--scale", str(scale),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    detail = next(
        (json.loads(l[len(DETAIL_PREFIX):]) for l in lines if l.startswith(DETAIL_PREFIX)),
        None,
    )
    if detail is None:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name}: run produced no result (exit {done.returncode})")
    detail["failed_checks"] = [l for l in lines if l.startswith("FAILED CHECK")]
    if done.returncode != 0 and not detail["failed_checks"]:
        detail["failed_checks"] = [f"exit code {done.returncode}"]
    return detail


def protocol(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else [w[0] for w in spec.WORKLOADS]
    report: dict[str, dict] = {}
    failures: list[str] = []
    for name in names:
        runs = [
            run_unit(name, args.seed, args.seconds, False, args.scale)
            for _ in range(args.repeats)
        ]
        entry: dict = {
            "repeats": len(runs),
            "result_digest": runs[0]["result_digest"],
            "end_to_end": {
                metric[0]: statistics.median(r["end_to_end"][metric[0]] for r in runs)
                for metric in spec.END_TO_END
            },
            "end_to_end_runs": [r["end_to_end"] for r in runs],
            "guards": runs[0]["guards"],
        }
        for run in runs:
            failures += [f"{name}: {line}" for line in run["failed_checks"]]
            if run["result_digest"] != entry["result_digest"]:
                failures.append(f"{name}: repeats of seed {args.seed} disagree on result_digest")
            for guard, value in run["guards"].items():
                if abs(value - entry["guards"][guard]) > 1e-9:
                    failures.append(f"{name}: {guard} differs between repeats of one seed")
        if args.traced:
            traced = run_unit(name, args.seed, args.seconds, True, args.scale)
            failures += [f"{name} (traced): {line}" for line in traced["failed_checks"]]
            if traced["result_digest"] != entry["result_digest"]:
                failures.append(f"{name}: traced run disagrees on result_digest")
            entry["per_layer"] = traced["per_layer"]
            entry["trace"] = traced["trace"]
        report[name] = entry

        print(f"== {name}  seed={args.seed}  repeats={len(runs)}  "
              f"digest={entry['result_digest'][:16]}")
        for metric, unit, better, bound in spec.END_TO_END:
            values = ", ".join(f"{r['end_to_end'][metric]:.4f}" for r in runs)
            print(f"  {metric:42s} {entry['end_to_end'][metric]:14.4f} {unit:7s} "
                  f"({better} is better, bound {bound:.0%}; runs: {values})")
        for metric, unit, _better in spec.GUARDS:
            print(f"  {metric:42s} {entry['guards'][metric]:14.6f} {unit:7s} (exact)")
        for metric, unit, _better in spec.PER_LAYER[: -len(spec.GUARDS)]:
            if "per_layer" in entry:
                print(f"  {metric:42s} {entry['per_layer'][metric]:14.6f} {unit}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", help="one of: " + ", ".join(w[0] for w in spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="keep starting rounds until this much timed wall is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measured run in this process (0: end-to-end, 1: per-layer)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (the smoke test uses 0.05)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload (the per-layer table)")
    parser.add_argument("--out", help="write the protocol's report as JSON")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    return protocol(args)


if __name__ == "__main__":
    sys.exit(main())
