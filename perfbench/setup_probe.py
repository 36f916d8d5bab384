"""Set-up probe, run in a fresh process by run.py.

Reads a JSON list of scenario documents from stdin, then times `import fplab`
plus `fplab.build_scenario` on every document, and prints
{"setup_s": <seconds>} on stdout.

    python3 perfbench/setup_probe.py <path of fplab's src directory> < docs.json
"""

import json
import sys
import time


def main() -> None:
    src = sys.argv[1]
    docs = json.load(sys.stdin)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import fplab

    for doc in docs:
        fplab.build_scenario(doc)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
