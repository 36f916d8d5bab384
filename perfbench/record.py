"""Record perfbench/expected.json from the current sources.

    python3 perfbench/record.py

Runs every operation of every workload at workload seed 0 once and stores
the SHA-256 of each artifact it writes, plus the verdict map and exit code of
each long-orbit document.  run.py compares against these, so re-record only
when a change to fplab is meant to change its outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import fplab

    import workloads

    work_dir = run.OUT / "record"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        verdicts = {}
        for doc in workloads.long_orbit_documents(0):
            result = fplab.run_scenario_doc(doc, str(work_dir / doc["name"]), seed=doc["seed"])
            verdicts[doc["name"]] = {"exit_code": result.exit_code,
                                     "verdicts": result.verdicts}
        expected = {"long_orbit_verdicts": verdicts, "digests": {}}
        for name in workloads.WORKLOADS:
            digests = {}
            for i, op in enumerate(workloads.build_workload(name, 0, expected)):
                out_dir = str(work_dir / f"{name}-{i}")
                fplab.run_scenario_doc(op.doc, out_dir, seed=op.seed,
                                       expectations=op.expectations)
                digests[op.label] = run.artifact_digests(out_dir)
            expected["digests"][name] = digests
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
