"""Run the engine differential over the serving knob space at a large budget.

``test_engine_fuzz.py`` holds the property: for one drawn configuration
(policy, admission, swap, sharing, chunking, classes, co-hosted models, KV
budget, exact pricing, trace and curve, replicas, router, failures and
autoscaler), ``engine="object"`` (the per-iteration reference) and
``engine="array"`` (the fast paths) return the same ``to_dict()`` JSON or
the same error, with events on and off, and an evented run expands to the
reference's log and replays clean.  Tier-1 draws a few dozen
configurations; this script draws thousands, from a seed, prints the
count and the time, and exits 1 with the falsifying configuration on the
first disagreement.  From the repository root::

    PYTHONPATH=src:tests python tests/fuzz_engines.py [examples] [seed]
"""

from __future__ import annotations

import sys
import time

from hypothesis import HealthCheck, given, seed, settings

from test_engine_fuzz import check_engines_agree, configs

EXAMPLES = 2000


def main(argv: "list[str]") -> int:
    examples = int(argv[0]) if argv else EXAMPLES
    chosen = int(argv[1]) if len(argv) > 1 else 0

    @seed(chosen)
    @settings(
        max_examples=examples, deadline=None, database=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(config=configs())
    def fuzz(config):
        check_engines_agree(config)

    start = time.perf_counter()
    try:
        fuzz()
    except AssertionError:
        print(f"engines disagree (seed {chosen}); see the falsifying example above")
        return 1
    print(
        f"{examples} configurations: both engines agree "
        f"(seed {chosen}, {time.perf_counter() - start:.1f} s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
