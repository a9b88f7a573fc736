"""One set-up sample, from a fresh interpreter: seconds from the beampower
import until a workload's first episode is ready (for voice_sweep: until its
config is loaded).  Prints the seconds on stdout.

    python3 perfbench/setup_probe.py dqn_train
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, load_beampower  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    bp = load_beampower()
    workload.first_episode_ready(bp)
    print(repr(time.perf_counter() - t0))
