"""Record the expected fingerprint of every catalogue job into expected.json.

Run only when a change is meant to alter the simulated numbers, and say so
in the change: every later run is checked against this file.

    python3 perfbench/record.py
"""

import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import EXPECTED_PATH, ROOT, WORKLOADS, load_beampower  # noqa: E402

if __name__ == "__main__":
    bp = load_beampower()
    import numpy
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    table = {"recorded_with": {"python": platform.python_version(),
                               "numpy": numpy.__version__,
                               "machine": platform.machine()}}
    for name, wl in WORKLOADS.items():
        table[name] = wl.record(bp, work)
        print(f"{name}: {len(table[name])} jobs", flush=True)
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
