"""fplab benchmark: run one workload in this process, check every output, and
print its metrics.

    python3 perfbench/run.py --workload meir-keeler --seed 0 --seconds 55 --trace 0

Operations run one after another (a closed loop with one client).  A round
runs every operation of the workload once; rounds repeat while the next one
should end within --seconds.  --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced rounds and reports the per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

# fresh processes timed for setup_s: one before each pass of rounds, so that
# the samples spread over the run, and at least this many
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, so drift of a shared machine
    shows beside the numbers."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digests(out_dir: str) -> dict[str, str]:
    return {name: sha256(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}


def check_op(op, result, out_dir: str, digests: dict | None) -> list[str]:
    """Every way the operation's outputs differ from what it must produce."""
    problems = []
    if result.exit_code != op.expected_exit:
        problems.append(f"exit code {result.exit_code}, expected {op.expected_exit}")
    for path, want in sorted(op.expected_verdicts.items()):
        got = result.verdicts.get(path)
        if got != want:
            problems.append(f"verdict {path} is {got!r}, expected {want!r}")
    if op.exact_verdicts:
        extra = sorted(set(result.verdicts) - set(op.expected_verdicts))
        if extra:
            problems.append(f"unexpected verdicts {extra}")
    if result.violations:
        problems.append(f"expectation violations {result.violations}")
    with open(os.path.join(out_dir, "reports.json"), encoding="utf-8") as fh:
        written = json.load(fh)
    if written["verdicts"] != result.verdicts or written["exit_code"] != result.exit_code:
        problems.append("reports.json disagrees with the returned result")
    files = sorted(os.listdir(out_dir))
    if files != sorted(result.artifacts):
        problems.append(f"files {files} differ from the reported artifacts "
                        f"{sorted(result.artifacts)}")
    if digests is not None:
        actual = artifact_digests(out_dir)
        for name in sorted(set(actual) | set(digests)):
            if actual.get(name) != digests.get(name):
                problems.append(f"artifact {name} digest {actual.get(name)} differs from "
                                f"the recorded {digests.get(name)}")
    return problems


@dataclass
class Round:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    op_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_round(fplab, ops, digests: dict | None, work_dir: Path, index: int,
              tracer=None) -> Round:
    rnd = Round(traced=tracer is not None)
    for i, op in enumerate(ops):
        out_dir = str(work_dir / f"r{index}-{i}")
        if tracer is not None:
            tracer.op = index * len(ops) + i
        rnd.attempted += 1
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = fplab.run_scenario_doc(op.doc, out_dir, seed=op.seed,
                                            expectations=op.expectations)
        except Exception:
            result = None
            problems = [f"raised\n{traceback.format_exc()}"]
        wall = time.perf_counter() - t0
        rnd.cpu += cpu_seconds() - c0
        rnd.wall += wall
        rnd.op_walls.append(wall)
        if result is not None:
            try:
                problems = check_op(op, result, out_dir,
                                    None if digests is None else digests.get(op.label, {}))
            except Exception:
                problems = [f"checking raised\n{traceback.format_exc()}"]
        if problems:
            rnd.failed += 1
            print(f"FAILED {op.label}: " + "; ".join(problems), file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
    return rnd


class SetupProbe:
    """Times `import fplab` plus build_scenario on every document of the
    workload, each time in a fresh process."""

    def __init__(self, ops) -> None:
        self.docs = json.dumps([op.doc for op in ops])
        self.times: list[float] = []
        self._probe()  # untimed: the first process also writes the bytecode cache

    def _probe(self) -> float:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=self.docs, capture_output=True, text=True, cwd=ROOT, timeout=120,
            check=True,
        )
        return json.loads(proc.stdout)["setup_s"]

    def sample(self) -> None:
        self.times.append(self._probe())

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.sample()
        return statistics.median(self.times)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("meir-keeler", "gallery-quick", "long-orbit"))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 also checks artifact digests")
    ap.add_argument("--seconds", type=float, default=55.0,
                    help="measure for about this long: a round starts only if it "
                         "should end in time, and at least one round runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fplab" / "__init__.py").is_file():
        print(f"error: no fplab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    calibration_start = calibrate()

    sys.path.insert(0, str(SRC))
    import numpy
    import fplab

    import tracing
    import workloads

    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    ops = workloads.build_workload(args.workload, args.seed, expected)
    digests = expected["digests"][args.workload] if args.seed == 0 else None

    setup = None if args.trace else SetupProbe(ops)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    rounds: list[Round] = []
    try:
        start = time.perf_counter()
        passes = 0
        while True:
            if setup is not None:
                setup.sample()
            rounds.append(run_round(fplab, ops, digests, work_dir, len(rounds)))
            if tracer is not None:
                tracer.install()
                try:
                    rounds.append(run_round(fplab, ops, digests, work_dir,
                                            len(rounds), tracer))
                finally:
                    tracer.uninstall()
            passes += 1
            elapsed = time.perf_counter() - start
            # start another pass only if it should end within --seconds
            if elapsed + elapsed / passes > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    op_walls = [w for r in plain for w in r.op_walls]
    wall_s = statistics.median(r.wall for r in plain)

    if tracer is None:
        values = {
            "setup_s": setup.median(),
            "wall_s": wall_s,
            "op_s.p50": statistics.median(op_walls),
            "cpu_s": statistics.median(r.cpu for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        leftover = tracing.leftover_wrappers()
        if leftover:
            print(f"error: tracer wrappers left in place: {leftover}", file=sys.stderr)
            return 1
        traced_wall = statistics.median(r.wall for r in traced)
        values = tracer.metrics(len(traced))
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = wall_s
        values["trace.overhead_s"] = traced_wall - wall_s
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"))

    machine = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(load_start),
        "calibration_s_start": calibration_start,
        "calibration_s_end": calibrate(),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "rounds": [{"traced": r.traced, "wall_s": r.wall, "cpu_s": r.cpu,
                    "op_s": r.op_walls, "failed": r.failed} for r in rounds],
        "ops": [op.label for op in ops],
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced round(s) of {len(ops)} operation(s); "
          f"op_s.p50 over {len(op_walls)} operations; failed_frac {failed / attempted:g} "
          f"({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
