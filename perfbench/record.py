"""Record the answers the checker compares against, from the coxkit in src/.

    python3 perfbench/record.py

Writes perfbench/data/recorded.json:

* "canonical": probe words and the canonical words coxkit returns for them,
  per group.  The checker confirms that its reference normalizer still
  reproduces them, so canonical words stay those of the recording commit.
* "closures": a pool of radius-limited closure queries on hyperbolic_334 and
  affine_a2 with the closure coxkit returns.  A later answer must contain
  the query and lie inside the recorded closure.

Run it only at the commit whose answers are the baseline; the file is
committed with the benchmark.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import coxkit as ck  # noqa: E402
from reference import RefSystem, corpus_matrix  # noqa: E402
from workloads import LIMITED_RADIUS, Closure, Cone, Words, _random_word  # noqa: E402

PROBES = 40
POOL = 128
GENERATION_SEED = 20051231


def main():
    rng = random.Random(GENERATION_SEED)
    groups = sorted(set(Words.groups) | set(Closure.groups) | set(Cone.groups))
    canonical = {}
    for g in groups:
        W = ck.corpus.load(g)
        probes = [_random_word(rng, W.rank, k) for k in range(PROBES)]
        canonical[g] = [[list(w), list(W.normalize(w).word)] for w in probes]
    closures = {}
    for g in ("hyperbolic_334", "affine_a2"):
        W = ck.corpus.load(g)
        ref = RefSystem(corpus_matrix(ck.corpus.source(g)))
        pool = []
        for _ in range(POOL):
            elements = [ref.random_reduced(rng, rng.randint(1, 8))
                        for _ in range(rng.randint(1, 3))]
            res = ck.pc(ck.ClosureQuery([W.normalize(w) for w in elements], LIMITED_RADIUS))
            pool.append({"elements": [list(w) for w in elements],
                         "rep": list(res.closure.rep.word),
                         "gens": sorted(res.closure.gens),
                         "status": res.status.value})
        closures[g] = pool
    out = HERE / "data" / "recorded.json"
    out.write_text(json.dumps({"radius": LIMITED_RADIUS, "canonical": canonical,
                               "closures": closures}, separators=(",", ":")) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
