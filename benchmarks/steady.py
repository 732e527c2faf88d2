"""Steadiness mode: run the benchmark repeatedly and check its spread.

    python3 benchmarks/steady.py                       # every workload, seeds 1..10
    python3 benchmarks/steady.py --seeds 7919          # the held-out seed
    python3 benchmarks/steady.py --root ../parent --root .   # parent vs change

Each run is a fresh ``run.py --trace 0`` process, for every workload of
BENCHMARK.json and for its ``run_seconds``, in the checkout given by
``--root`` (default: the current directory). With several roots the
order of the roots alternates from one seed to the next. Every result
is appended to ``<out>/runs-<i>.jsonl`` for root i. For each root and
workload x end-to-end metric it prints the median, the quartiles and the
spread (quartile distance over median) against the metric's bound in
BENCHMARK.json: "steady" below a third of the bound, "inside" below the
bound, "OUTSIDE" beyond it. With two roots it then prints the
``compare.py`` table of the second root against the first.

The exit code is 1 when a run fails or a spread lies outside its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import compare, load_spec, quartiles, read_runs, spread

RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 300


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict | None:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(runs_path: Path, spec: dict) -> tuple[list[str], bool]:
    runs = read_runs(runs_path)
    lines, steady = [], True
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            values = [v for _, v in runs[workload["name"]][metric["name"]]]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            share = spread(values)
            bound = metric["bound"]
            status = "steady" if share < bound / 3 else "inside" if share <= bound else "OUTSIDE"
            steady &= share <= bound
            lines.append(
                f"{workload['name']:<11} {metric['name']:<15} median {q2:<12.6g} "
                f"[{q1:.6g}, {q3:.6g}] {metric['unit']:<4} spread {share:6.2%} "
                f"bound {bound:.0%}  {status}  (n={len(values)})"
            )
    return lines, steady


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--root", type=Path, action="append")
    parser.add_argument("--out", type=Path, default=Path(".bench_out/steady"))
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    roots = [r.resolve() for r in args.root or [Path.cwd()]]

    args.out.mkdir(parents=True, exist_ok=True)
    paths = [args.out / f"runs-{i}.jsonl" for i in range(len(roots))]
    for path in paths:
        path.write_text("")
    ok = True
    for n, seed in enumerate(args.seeds):
        order = list(enumerate(roots))
        if n % 2:
            order.reverse()
        for workload in workloads:
            for i, root in order:
                result = run_once(root, workload, seed, spec["run_seconds"])
                if result is None or not result["correct"]:
                    ok = False
                    continue
                record = {"workload": workload, "seed": seed, "result": result}
                with paths[i].open("a") as fh:
                    fh.write(json.dumps(record) + "\n")

    for root, path in zip(roots, paths):
        lines, steady = report(path, spec)
        print(f"# {root} ({path})")
        print("\n".join(lines))
        ok &= steady
    if len(roots) == 2:
        lines, _ = compare(paths[0], paths[1], spec)
        print(f"# {roots[1]} against {roots[0]}")
        print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
