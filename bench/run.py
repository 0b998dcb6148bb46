"""Benchmark of `probdatalog run` on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It measures the package under
`src/` of that checkout and nothing else: without that source it exits
with a non-zero status before printing a result.  The last line of standard output
is a JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the full record of the run is written under `bench/out/`.
See README.md next to this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_checkout_source() -> None:
    """Put the checkout's `src/` first on the import path, and refuse to
    measure a probdatalog that comes from anywhere else."""
    if not (SRC / "probdatalog" / "__init__.py").is_file():
        sys.exit(f"bench: no probdatalog source under {SRC}")
    sys.path.insert(0, str(SRC))
    import probdatalog

    if Path(probdatalog.__file__).resolve().parent != SRC / "probdatalog":
        sys.exit(f"bench: probdatalog was imported from {probdatalog.__file__}")


if __name__ == "__main__":
    use_checkout_source()
    import harness

    sys.exit(harness.main(sys.argv[1:]))
