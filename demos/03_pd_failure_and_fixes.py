"""Why the natural-gradient update needs a positive-definiteness guarantee.

The measurement-loss curvature splits into a PSD Gauss-Newton part and a
residual-weighted part that can push the total negative.  Feeding that
indefinite curvature straight into a precision update (the "nopd" variant)
eventually produces a non-PD covariance and kills the run; the Gauss-Newton
and factored variants provably cannot.

Part 1 maps out where the cubic sensor's exact curvature goes indefinite.
Part 2 runs all three variants on one Duffing trajectory until one of them
dies.
"""

import numpy as np

from nanofilter.bench import make_trajectory, run_filter
from nanofilter.nano import hess_loglik, hess_loglik_gn
from nanofilter.quadrature import parse_rule
from nanofilter.scenarios import ScenarioConfig, scenario_models
from nanofilter.systems import duffing_model


def part1_curvature_map():
    model = duffing_model()
    print("cubic sensor y = x1^3: position curvature of the loss at y = 5")
    print(f"{'x1':>6} {'exact':>12} {'Gauss-Newton':>14}")
    for x1 in (2.0, 1.71, 1.5, 1.0, 0.5, 0.0):
        x, y = np.array([x1, 0.0]), np.array([5.0])
        exact = hess_loglik(x, y, model)[0, 0]
        gn = hess_loglik_gn(x, model)[0, 0]
        flag = "  <- indefinite" if exact < 0 else ""
        print(f"{x1:>6.2f} {exact:>12.1f} {gn:>14.1f}{flag}")
    print("GN keeps only the J^T R^-1 J term, PSD by construction; the exact")
    print("form flips sign once the residual term -R^-1(y - g) g'' dominates.\n")


def part2_one_trajectory():
    cfg = ScenarioConfig(model="duffing", trials=1, horizon=60, seed=0)
    setup = scenario_models(cfg)
    traj = make_trajectory(cfg, 0, setup)
    rule = parse_rule("cubature")

    print("one Duffing trajectory, 60 steps, identical measurements:")
    for fid in ("nano-nopd", "nano-ekf", "nano", "nano-chol"):
        run = run_filter(setup, fid, traj, rule)
        if run.diverged:
            print(f"  {fid:<10} died at step {run.steps + 1} (covariance no longer PD)")
        else:
            err = np.sqrt(np.mean((traj.states[1:] - run.means) ** 2))
            print(f"  {fid:<10} completed, rmse {err:.3f}")


def main():
    part1_curvature_map()
    part2_one_trajectory()


if __name__ == "__main__":
    main()
