"""Logarithmic entropy growth at the gapless point.

At equal bond couplings and zero field the chain is gapless, a c = 1
conformal theory, and the block entropy grows like (c / 3) * log2(L) plus a
constant, in bits: 1/3 bit per doubling of the block.  Fit the slope over a
few windows of block length and compare with that coefficient; the ring's
finite length bends the curve down as L grows, so wider windows fit lower.
"""

from kitaevchain import ChainParams, block_entropy_curve, fit_log_slope

TARGET = 1.0 / 3.0


def main():
    p = ChainParams(1000, 1.0, 1.0, 0.0)
    curve = block_entropy_curve(p, range(8, 257, 2))

    print("L vs S along the curve (every 16th point):")
    for block_len, s in curve[::16]:
        print(f"  L={block_len:3d}  S={s:.8f}")
    print()

    for window in ((8, 256), (8, 128), (16, 256), (32, 256)):
        fit = fit_log_slope(curve, window)
        err = 100.0 * abs(fit.slope - TARGET) / TARGET
        print(
            f"window L in [{window[0]:3d},{window[1]:3d}]: "
            f"slope={fit.slope:.5f}  intercept={fit.intercept:.5f}  "
            f"r2={fit.r_squared:.6f}  off target by {err:.1f}%"
        )
    print(f"\nexpected slope 1/3 = {TARGET:.5f} bits per doubling")


if __name__ == "__main__":
    main()
