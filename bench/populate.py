"""Generate and write the synthetic populations of one benchmark workload.

Usage:
    python3 bench/populate.py SPEC_JSON

SPEC_JSON is a JSON list of ``{"dir", "m", "n", "c", "seed", "tags"}``
objects.  Each becomes ``<dir>/manifest.json`` plus ``<dir>/tensors/``,
written with ``disco.synth.save_population``.  With ``"tags": T > 0`` every
sample gets one of T task tags, drawn from the population seed.  The last
stdout line is ``{"generate_s": ..., "save_s": ...}`` summed over the
populations.

This runs in its own process so that the benchmark process, which spawns
every timed op, never holds a population in memory: a child's peak RSS as
reported by ``wait4`` includes the RSS its parent had when it was spawned.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from disco.synth import SynthConfig, generate_population, save_population


def main(specs: list[dict]) -> dict:
    generate_s = save_s = 0.0
    for spec in specs:
        t0 = time.perf_counter()
        manifest, tensors = generate_population(SynthConfig(
            m_models=spec["m"], n_samples=spec["n"], c_classes=spec["c"],
            seed=spec["seed"]))
        if spec["tags"]:
            rng = np.random.default_rng(spec["seed"])
            manifest.task_tags = [f"task{int(t)}" for t in
                                  rng.integers(0, spec["tags"], manifest.num_samples)]
            manifest.validate()
        t1 = time.perf_counter()
        save_population(manifest, tensors, spec["dir"])
        t2 = time.perf_counter()
        generate_s += t1 - t0
        save_s += t2 - t1
        del manifest, tensors
    return {"generate_s": generate_s, "save_s": save_s}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
