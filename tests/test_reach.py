"""Every function under src/fplab is reached by a pinned run, or says why not.

A fresh process sets a sys.setprofile hook before it imports fplab, then
runs what the byte-identity gates pin: perfbench's set-up probe (`import
fplab`, then `fplab.build_scenario` on pinned documents), the gallery at
seed 0, `gallery --list`, one `validate`, one `fplab run <entry>` and
perfbench's five long-orbit documents at workload seed 0, the only pinned
runs with an expression map.  Each function defined in src/fplab must have
run there, or sit in UNREACHED with a one-line reason.  New code is then
reached by a document, or its entry says why not; and an entry whose
function a pinned run starts to reach, or that names no function, fails the
test too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import fplab

SRC = Path(fplab.__file__).resolve().parent
ROOT = SRC.parents[1]

# qualified name -> why no pinned run reaches it
UNREACHED = {
    "spaces.DiskSet.contains_coords": "a disk cyclic set: no pinned document declares one",
    "spaces.DiskSet.sample_coords": "a disk cyclic set: no pinned document declares one",
    "spaces.DiskSet.describe": "a disk cyclic set: no pinned document declares one",
    "spaces.DiskSet.__post_init__": "a disk cyclic set: no pinned document declares one",
    "gauges.explicit_family": "an explicit gauge family: no pinned document declares one",
    "expressions._Rewrite.visit_Subscript": "a list-form expression map: none is pinned",
    "maps.expression_map.<locals>.apply_list": "a list-form expression map: none is pinned",
    "expressions._reduce_min": "the expression function min: no pinned expression uses it",
    "expressions._reduce_max": "the expression function max: no pinned expression uses it",
    "reports.SearchBudget.scaled": "--budget-scale: no pinned run scales its budget",
    "runner._default_steps": "a run without steps: every pinned document sets steps",
    "spaces._axiom_evaluations": "the axiom replay: it runs only when an axiom block raises",
    "runner._Sink.discard": "an error path: it runs only when a run raises",
    "spaces.Premetric.describe": "an error path: it names a premetric in an error message",
    "certificates.acf_asf_agreement": "the acceptance gate's cross-check, not a document run",
    "__init__.__dir__": "dir(fplab): no pinned run lists the package's names",
}

# runs in a fresh process, so that functions which run at import count too
_PROBE = r"""
import contextlib, inspect, io, json, os, sys, tempfile
from pathlib import Path

codes = set()


def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(hook)
import fplab
from fplab.gallery import get_entry
from perfbench.workloads import long_orbit_documents

# perfbench's setup probe: import fplab, then build every pinned document
for doc in [get_entry("meir-keeler").doc, *long_orbit_documents(0)]:
    fplab.build_scenario(doc)

from fplab.cli import main
from fplab.runner import run_scenario_doc

with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    main(["gallery", "--out", os.path.join(tmp, "gallery")])
    main(["gallery", "--list"])
    doc = os.path.join(tmp, "banach-half.yaml")
    with open(doc, "w", encoding="utf-8") as fh:
        json.dump(get_entry("banach-half").doc, fh)  # JSON is YAML
    main(["validate", doc])
    main(["run", "banach-half", "--out", os.path.join(tmp, "run")])
    for doc in long_orbit_documents(0):
        run_scenario_doc(doc, os.path.join(tmp, doc["name"]))
sys.setprofile(None)
src = os.path.dirname(os.path.abspath(fplab.__file__))
# functions only: no module or class bodies, lambdas or comprehensions
print(json.dumps(sorted({f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
                         if os.path.dirname(os.path.abspath(c.co_filename)) == src
                         and c.co_flags & inspect.CO_OPTIMIZED
                         and not c.co_name.startswith("<")})))
"""


def _defined() -> set[str]:
    """module.qualname of every def in src/fplab, as code objects name it."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return names


def test_every_function_is_reached_or_listed():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(ROOT)])}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, check=True, cwd=ROOT)
    reached = set(json.loads(out.stdout))
    defined = _defined()
    assert reached <= defined  # the names agree with the code objects'
    assert sorted(set(UNREACHED) - defined) == []
    assert sorted(defined - reached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) & reached) == []
