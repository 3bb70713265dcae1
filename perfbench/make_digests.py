"""Regenerate digests.json: output digests for the shipped seeds.

    python3 perfbench/make_digests.py

cli_oneshot stores one digest per command of the 64-command pool (the bytes
``cli.main`` prints); assoc_fuzz stores one per request for the first
DIGEST_PREFIX requests (the canonical text of (PQ)R).  Only regenerate when
a change is meant to alter output; the benchmark fails any shipped-seed run
whose outputs differ from these.
"""

from __future__ import annotations

import json
import sys

import workloads

SHIPPED_SEEDS = (0, 7)  # the default seed and one held out while tuning


def cli_digests(seed: int) -> list[str]:
    wl = workloads.CliOneshot(seed)
    wl.setup()
    out = []
    for _, argv in wl.pool:
        rc, text = workloads.cli_inprocess(argv)
        if rc != 0:
            raise SystemExit(f"seed {seed}: {argv} exited {rc}")
        out.append(workloads.digest(text.decode()))
    return out


def assoc_digests(seed: int) -> list[str]:
    from expweyl.expr import format_element

    wl = workloads.AssocFuzz(seed)
    wl.setup()
    out = []
    for _ in range(workloads.DIGEST_PREFIX):
        req = wl.next_request()
        left, right = wl.execute(req)
        if left != right:
            raise SystemExit(f"seed {seed}: request {req.index} is not associative")
        out.append(workloads.digest(format_element(left)))
    return out


def main() -> None:
    sys.path.insert(0, str(workloads.SRC))
    table = {
        "cli_oneshot": {str(s): cli_digests(s) for s in SHIPPED_SEEDS},
        "assoc_fuzz": {str(s): assoc_digests(s) for s in SHIPPED_SEEDS},
    }
    workloads.DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.DIGESTS}")


if __name__ == "__main__":
    main()
