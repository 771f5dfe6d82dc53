"""The exhaustive Z/p^K orbit checks that are too slow for the test suite.

    python3 tools/exhaustive_orbits.py

For each (p, K, N) in CASES, tests/test_moduli.py's orbit oracle lists
every admissible series over Z/p^K at truncation N and joins them into
orbits by union-find; then forms_separate_orbits, the check of
TestExhaustiveOrbits, puts each series through canonicalize_dvr and
asserts that the outcome is constant on every orbit, that no two orbits
share a form and that each form lies in its own orbit.  The trivial
branch of canonicalize_dvr inverts its substitutions by
series.reversion.  The cases list 118 098 to 262 144 series and take
14-41 s each on a shared 2-core x86 machine, too slow for the test
suite, so they live outside the test paths and run as their own step of
the tier1 CI job (Python 3.11 only).  They are the only check over whole
rings of the digit sweep, including the window moves its valuation bound
skips.  Prints one JSON line per case and exits 1 if a check fails.
Needs pytest importable (the test module imports it).
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_moduli import forms_separate_orbits  # noqa: E402

CASES = ((3, 2, 6), (2, 4, 5), (3, 3, 4))


def main() -> int:
    failed = False
    for p, K, N in CASES:
        t0 = time.perf_counter()
        out = {"ring": f"Zp:{p}:{K}", "N": N}
        try:
            out["series"], out["orbits"] = forms_separate_orbits(p, K, N)
            out["ok"] = True
        except AssertionError as err:
            out["ok"], out["failure"] = False, str(err)
            failed = True
        out["seconds"] = round(time.perf_counter() - t0, 1)
        print(json.dumps(out), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
