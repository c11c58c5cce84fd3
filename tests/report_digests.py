"""Print the SHA-256 of every parity report, one line per report.

The reports are those of the 12 parity documents (``test_report_parity``)
at seeds 0, 7 and 11 and at 1, 13, 37 and 100 points: 144 lines of
``document seed points digest``, each digest over the report document
without its ``wall_time_seconds``.  Two trees give byte-identical reports
when their outputs are equal:

    python3 tests/report_digests.py > before.txt    # in one tree
    python3 tests/report_digests.py > after.txt     # in the other
    diff before.txt after.txt

Each tree's own ``src`` is imported.  OpenBLAS picks its kernels by CPU, so
digests are compared only between runs on one machine; that is why this
is a script and not a test.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_report_parity import DOCUMENTS  # noqa: E402
from tetradkit.runner import report_document, run_checks  # noqa: E402
from tetradkit.scenarios import scenario_from_dict  # noqa: E402

SEEDS = (0, 7, 11)
POINTS = (1, 13, 37, 100)


def digest(name: str, seed: int, points: int) -> str:
    doc = report_document(run_checks(scenario_from_dict(DOCUMENTS[name]()), points=points, seed=seed))
    del doc["wall_time_seconds"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    for name in DOCUMENTS:
        for seed in SEEDS:
            for points in POINTS:
                print(name, seed, points, digest(name, seed, points), flush=True)
