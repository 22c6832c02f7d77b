"""A/A noise check: the whole protocol twice on one checkout.

Prints, per workload x end-to-end metric, both medians, their relative
difference in the metric's *worse* direction and the bound; the six
deterministic guards must agree exactly (1e-9).  Exits non-zero when a
pair differs by more than its bound — which would mean the benchmark
cannot tell a regression of that size from its own noise.

    python3 benchmarks/e2e/aa.py [--repeats 3] [--workload NAME] [--scale X]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def protocol(extra: list[str], out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--out", str(out), *extra],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("aa: a protocol run failed its own checks")
    return json.loads(out.read_text())


def worsening(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workload")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    extra = ["--repeats", str(args.repeats), "--scale", str(args.scale)]
    if args.workload:
        extra += ["--workload", args.workload]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    first = protocol(extra, out / "aa-first.json")
    second = protocol(extra, out / "aa-second.json")

    failures = 0
    for name in first:
        print(f"== {name}")
        for metric, unit, better, bound in spec.END_TO_END:
            a = first[name]["end_to_end"][metric]
            b = second[name]["end_to_end"][metric]
            # either run may be the unlucky one: judge the larger worsening
            worse = max(worsening(a, b, better), worsening(b, a, better))
            verdict = "ok" if worse <= bound else "OVER BOUND"
            failures += verdict != "ok"
            print(f"  {metric:18s} {a:14.4f} {b:14.4f} {unit:5s} "
                  f"differ {worse:6.2%}  bound {bound:.0%}  {verdict}")
        for metric, unit, _better in spec.GUARDS:
            a, b = first[name]["guards"][metric], second[name]["guards"][metric]
            verdict = "ok" if abs(a - b) <= 1e-9 else "NOT EXACT"
            failures += verdict != "ok"
            print(f"  {metric:18s} {a:14.6f} {b:14.6f} {unit:5s} exact  {verdict}")
        if first[name]["result_digest"] != second[name]["result_digest"]:
            failures += 1
            print("  result_digest differs between the two runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
