#!/usr/bin/env python3
"""Show the penalty term rescuing a run that plain updates destabilise.

Solves the stress benchmark twice with shared noise: once as plain
successive approximations (penalty pinned at zero, every update
accepted) and once with the adaptive penalty.  The plain trace jumps
upward early; the adaptive one backtracks once, doubles the penalty,
and converges.
"""

import argparse
import os
from dataclasses import replace

from msacontrol import MsaConfig, export_csv, get_benchmark, run_msa, upward_jumps


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=10_000)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--iterations", type=int, default=20, help="cap for the plain run")
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--out", default="out")
    args = ap.parse_args()

    bench = get_benchmark("msa_stress")
    modified_cfg = MsaConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed)
    classical_cfg = replace(
        modified_cfg,
        classical=True,
        rho_initial=0.0,
        max_iterations=args.iterations,
        tol_mu=1e-12,
        tol_dj=1e-15,
    )

    traces = {}
    for label, cfg in (("classical", classical_cfg), ("modified", modified_cfg)):
        _, traces[label] = run_msa(bench.problem, cfg)

    os.makedirs(args.out, exist_ok=True)
    print(f"problem: {bench.name}  paths={args.paths} steps={args.steps}")
    print(f"{'n':>3} {'J plain':>12} {'J adaptive':>12} {'rho':>8}")
    rows = max(traces["classical"].n_rows, traces["modified"].n_rows)
    for i in range(rows):
        cells = [f"{i + 1:>3}"]
        for label in ("classical", "modified"):
            tr = traces[label]
            cells.append(f"{tr.costs[i]:>12.6f}" if i < tr.n_rows else " " * 12)
        tr = traces["modified"]
        cells.append(f"{tr.rhos[i]:>8g}" if i < tr.n_rows else "")
        print(" ".join(cells))

    jumps = upward_jumps(traces["classical"])
    jump = jumps[0] if jumps else None
    print(f"\nplain updates: first cost jump beyond noise at iteration {jump}")
    print(f"adaptive penalty: status={traces['modified'].status} "
          f"final J={traces['modified'].final_cost:.6f} "
          f"final mu={traces['modified'].final_mu:.2e}")
    for label, tr in traces.items():
        path = os.path.join(args.out, f"stress_{label}_trace.csv")
        export_csv(tr, path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
