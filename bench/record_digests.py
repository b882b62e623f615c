"""Record the sha256 of every workload output at the default seed into digests.json.

Run from the repository root, only when an output change is intended:

    python3 bench/record_digests.py

Each output must first pass its workload's seed-independent checks.
"""

from __future__ import annotations

import json
import shutil
import sys

sys.dont_write_bytecode = True

from run import CLI_ENTRY, WORK, child_env, run_child  # noqa: E402
from workloads import DEFAULT_SEED, DIGESTS_PATH, WORKLOADS, sha256  # noqa: E402


def main() -> int:
    digests = {}
    for name, cls in WORKLOADS.items():
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        wl = cls(WORK, DEFAULT_SEED)
        wl.digests = None
        wl.prepare()
        digests[name] = {}
        for call in wl.calls:
            stdout_path = WORK / "child.out"
            code, _, _, _ = run_child([sys.executable, "-c", CLI_ENTRY, *call.args], child_env(), stdout_path)
            problem = wl.check(call, code, stdout_path.read_text(errors="replace"))
            if problem:
                print(f"{name}: {problem}", file=sys.stderr)
                return 1
            digests[name][call.label] = sha256(call.out)
            print(f"{name} {call.label} {digests[name][call.label]}")
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
