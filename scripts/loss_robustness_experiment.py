#!/usr/bin/env python3
"""Loss robustness demo: g2/g3 and the sector verdict survive uniform loss,
while loss-sensitive reconstruction tracks the state actually reaching the
detector rather than the source.
"""

import argparse

from gausstat.classify import classify, synthesize_measurements
from gausstat.recon_single import recon_squeezed_thermal
from gausstat.states import (
    GaussianParams,
    apply_uniform_loss,
    derive_moments,
    g2_tensor,
    g3_tensor,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=float, default=0.5, help="squeezing magnitude")
    parser.add_argument("--thermal", type=float, default=0.2, help="thermal occupation")
    parser.add_argument("--etas", default="1.0,0.5,0.1",
                        help="comma-separated transmissions")
    args = parser.parse_args()

    params = GaussianParams.single_mode(r=args.r, occupation=args.thermal)
    mom = derive_moments(params)
    print(f"source: squeezed thermal, r = {args.r}, N = {args.thermal}")
    print(f"{'eta':>5} {'nbar':>10} {'g2':>12} {'g3':>12} "
          f"{'sector':>14} {'r_hat':>8} {'N_hat':>8}")
    for eta in [float(x) for x in args.etas.split(",")]:
        lossy = apply_uniform_loss(mom, eta)
        g2 = float(g2_tensor(lossy)[0, 0])
        g3 = g3_tensor(lossy)[0, 0, 0]
        sector = classify(synthesize_measurements(lossy)).sector
        r_hat, occ_hat = recon_squeezed_thermal(g2, float(lossy.nbar[0]))
        print(f"{eta:5.2f} {lossy.nbar[0]:10.6f} {g2:12.8f} {g3:12.8f} "
              f"{sector:>14} {r_hat:8.4f} {occ_hat:8.4f}")
    print("\ng2, g3 and the sector are loss-invariant; the recovered (r, N)")
    print("describe the attenuated state, which is why a loss-sensitive")
    print("observable is indispensable for quantitative reconstruction.")


if __name__ == "__main__":
    main()
