"""Set-up probe: one fresh interpreter made ready for a workload's first op.

``python3 perfbench/setup_probe.py <workload> <seed> <work_dir>`` imports the
package modules the workload needs, builds its inputs, and prints one
JSON line: the import time, the number of ``repro`` modules loaded and
the input-construction time.  ``run.py`` times the whole process from
start to that line as one ``setup_s`` sample.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    start = time.perf_counter()
    for module in workload_cls.modules:
        __import__(module)
    imported = time.perf_counter()
    workload_cls(seed, references={}, work_dir=work_dir)
    built = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "modules": sum(1 for m in sys.modules if m == "repro" or m.startswith("repro.")),
        "build_s": built - imported,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
