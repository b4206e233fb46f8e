"""One untraced and one traced `iterative_sync` on the ROADMAP baseline scene.

    python3 perfbench/baseline.py

The scene is the ROADMAP bench scene (seed 0, beta_gt 30, noise 0.5 px,
10 tracks x 240 frames, waypoint spacing 300, 4 px/frame) with the README's
loop settings (f-gep, threshold 5, 1000 RANSAC iterations at most). It ties
the benchmark's per-layer numbers to the baseline figures ROADMAP records.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads and puts src on sys.path before camsync loads
import camsync.sync as sync
from camsync.robust import KIND_F_GEP, RansacParams
from camsync.sync import IterParams
from camsync.synth import SceneSpec, generate_scene
from workloads import ITER_SCENE, NOTES, Op, install


def main() -> int:
    spec = dict(ITER_SCENE, seed=0, beta_gt=30.0)
    t1, t2, _ = generate_scene(SceneSpec(**spec))
    params = IterParams(kind=KIND_F_GEP, ransac=RansacParams(seed=0, threshold=5.0))
    op = Op(span="sync.iterative_sync", kind=KIND_F_GEP, main=True,
            fn=sync.iterative_sync, args=(t1, t2, params),
            check=lambda r: abs(r.beta_total - spec["beta_gt"]))
    (_, plain_s, err, _), = run.run_rounds([op], 0.0)
    tracer = run.Tracer()
    install(tracer)
    try:
        records = run.run_rounds(
            [op], 0.0, lambda o: tracer.wrap(o.fn, o.span, NOTES[o.span])
        )
    finally:
        tracer.uninstall()
    layers, mismatches = run.per_layer(tracer, records, [])
    out = {
        "untraced_s": plain_s,
        "traced_s": records[0][1],
        "beta_err": err,
        "traced_beta_err": records[0][2],
        "layers": {k: v for k, (v, _) in layers.items() if v},
        "count_mismatches": mismatches,
    }
    print(json.dumps(out, indent=2))
    return 0 if not mismatches and err == records[0][2] else 1


if __name__ == "__main__":
    sys.exit(main())
