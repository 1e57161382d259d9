"""Regenerate ``reference.json``: digests of the library workloads' outputs.

Run from the repository root after a change that is *meant* to alter
covers or rankings (nothing else should ever need it)::

    python3 perfbench/make_reference.py

Every digest comes from fresh library discovery on unpermuted inputs
(see ``libbench.reference_outputs`` and ``servebench.reference_outputs``),
not from the code paths it later checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import REFERENCE_FILE, SRC  # noqa: E402

sys.path.insert(0, str(SRC))

import libbench  # noqa: E402
import servebench  # noqa: E402


def main() -> int:
    names = sorted({name for inputs in libbench.WORKLOAD_INPUTS.values() for name in inputs})
    lib = {}
    for name in names:
        lib[name] = libbench.reference_outputs(libbench.generate(name, seed=None))
        print(name, {key: value["count"] for key, value in lib[name].items()}, flush=True)
    serve = servebench.reference_outputs(servebench.make_bases())
    print("serve", {key: value["left_reduced"]["count"] for key, value in serve.items()})
    payload = {
        "note": "sha256[:16] of benchmark-formatted outputs; valid for every "
                "--seed (seeds only permute rows)",
        "lib": lib,
        "serve": serve,
    }
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
