"""Smoke test of the benchmark itself; not part of the repository's test suite.

    python3 perfbench/smoke.py [workload ...]

Runs each workload (by default all three, including gallery-quick, which
BENCHMARK.json does not list) for a single round at workload seed 0,
untraced and traced, and checks that:
  - every metric BENCHMARK.json names is printed, with its unit;
  - no operation failed, so failed_frac is 0 and every digest matched;
  - the per-layer self times sum to the traced wall within the measured
    tracing overhead;
  - the tracer wraps every binding of a function and leaves none behind;
  - without fplab's sources the benchmark exits non-zero and prints no result.
Takes about a minute and a half.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))
import fplab

import tracing
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def bench_run(workload: str, trace: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(label: str, result: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{label}: printed metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
    if result["failed"] != 0 or not result["correct"]:
        fail(f"{label}: {result['failed']} of {result['attempted']} operations failed")


def check_workload(workload: str) -> None:
    plain = bench_run(workload, 0)
    check_metrics(f"{workload} untraced", plain, BENCH["end_to_end"])
    if plain["metrics"]["ok_frac"]["value"] != 1.0:
        fail(f"{workload}: failed_frac is not 0")

    traced = bench_run(workload, 1)
    check_metrics(f"{workload} traced", traced, BENCH["per_layer"])
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    gap = m["trace.wall_s"] - self_total
    allowed = abs(m["trace.overhead_s"]) + 1e-3 * m["trace.wall_s"]
    if abs(gap) > allowed:
        fail(f"{workload}: self times sum to {self_total:.4f} s, traced wall "
             f"{m['trace.wall_s']:.4f} s, more than the overhead "
             f"{m['trace.overhead_s']:.4f} s apart")
    print(f"ok {workload}: wall {plain['metrics']['wall_s']['value']:.3f} s, traced wall "
          f"{m['trace.wall_s']:.3f} s, self-time sum {self_total:.3f} s, overhead "
          f"{m['trace.overhead_s']:+.3f} s")


def check_wrappers() -> None:
    originals = (fplab.certificates.check_acf_mapping, fplab.certificates.check_asf2,
                 fplab.spaces.premetric_diagonal)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for binding in ("runner.check_acf_mapping", "certificates.check_acf_mapping",
                        "solvers.check_asf2", "certificates.check_asf2",
                        "certificates.premetric_diagonal", "spaces.premetric_diagonal",
                        "solvers.premetric_diagonal"):
            module, name = binding.split(".")
            if not getattr(getattr(fplab, module).__dict__[name], "__perfbench_wrapped__",
                           False):
                fail(f"fplab.{binding} is not wrapped while tracing")
    finally:
        tracer.uninstall()
    left = tracing.leftover_wrappers()
    if left:
        fail(f"wrappers left after uninstall: {left}")
    if (fplab.runner.check_acf_mapping, fplab.solvers.check_asf2,
            fplab.certificates.premetric_diagonal) != originals:
        fail("uninstall did not restore the original functions")
    print("ok tracer wraps every binding and restores the originals")


def check_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [*BENCH["command"], "--workload", "meir-keeler", "--seed", "0",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok without sources: exit {proc.returncode}")


def main(argv: list[str]) -> int:
    check_wrappers()
    check_without_sources()
    for workload in argv or workloads.WORKLOADS:
        check_workload(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
