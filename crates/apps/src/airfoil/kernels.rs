//! The Airfoil user kernels, straight from OP2's `save_soln.h` /
//! `adt_calc.h` / `res_calc.h` / `bres_calc.h` / `update.h`. Each is
//! written once over a [`Lane`] type `T`: `T = R` in `step_seq` and the
//! scalar bodies, `T = VecR<R, L>` in the `L`-lane chunk bodies (paper
//! Fig. 3b). Rows are `[T; D]` arrays; scalars multiply from the right.

use ump_mesh::generators::BOUND_WALL;
use ump_simd::{Lane, Real};

use super::Consts;

/// `save_soln`: copy the flow state (direct, cells).
#[inline(always)]
pub fn save_soln<T: Copy>(q: &[T; 4], qold: &mut [T; 4]) {
    for n in 0..4 {
        qold[n] = q[n];
    }
}

/// `adt_calc`: local timestep from the cell's four edges (gather x,
/// direct write). `x1..x4` are the cell's nodes in winding order.
#[inline(always)]
pub fn adt_calc<R: Real, T: Lane<R>>(
    x1: &[T; 2],
    x2: &[T; 2],
    x3: &[T; 2],
    x4: &[T; 2],
    q: &[T; 4],
    adt: &mut T,
    c: &Consts<R>,
) {
    let ri = T::splat(R::ONE) / q[0];
    let u = ri * q[1];
    let v = ri * q[2];
    let cs = ((ri * q[3] - (u * u + v * v) * R::HALF) * (c.gam * c.gm1)).sqrt();

    // a function, not a closure: at `VecR` width LLVM kept a closure out
    // of line, one call per side
    #[inline(always)]
    fn side<R: Real, T: Lane<R>>(xa: &[T; 2], xb: &[T; 2], u: T, v: T, cs: T) -> T {
        let dx = xa[0] - xb[0];
        let dy = xa[1] - xb[1];
        (u * dy - v * dx).abs() + cs * (dx * dx + dy * dy).sqrt()
    }
    let mut acc = T::splat(R::ZERO);
    acc += side(x2, x1, u, v, cs);
    acc += side(x3, x2, u, v, cs);
    acc += side(x4, x3, u, v, cs);
    acc += side(x1, x4, u, v, cs);
    *adt = acc / c.cfl;
}

/// `res_calc`: interior edge flux (gather, colored scatter). The edge's
/// first cell (`q1`/`res1`) lies on the right of the directed edge
/// `x1 → x2`.
#[inline(always)]
pub fn res_calc<R: Real, T: Lane<R>>(
    x1: &[T; 2],
    x2: &[T; 2],
    q1: &[T; 4],
    q2: &[T; 4],
    adt1: T,
    adt2: T,
    res1: &mut [T; 4],
    res2: &mut [T; 4],
    c: &Consts<R>,
) {
    let dx = x1[0] - x2[0];
    let dy = x1[1] - x2[1];

    let mut ri = T::splat(R::ONE) / q1[0];
    let p1 = (q1[3] - ri * R::HALF * (q1[1] * q1[1] + q1[2] * q1[2])) * c.gm1;
    let vol1 = ri * (q1[1] * dy - q1[2] * dx);

    ri = T::splat(R::ONE) / q2[0];
    let p2 = (q2[3] - ri * R::HALF * (q2[1] * q2[1] + q2[2] * q2[2])) * c.gm1;
    let vol2 = ri * (q2[1] * dy - q2[2] * dx);

    let mu = (adt1 + adt2) * R::HALF * c.eps;

    let mut f;
    f = (vol1 * q1[0] + vol2 * q2[0]) * R::HALF + mu * (q1[0] - q2[0]);
    res1[0] += f;
    res2[0] -= f;
    f = (vol1 * q1[1] + p1 * dy + vol2 * q2[1] + p2 * dy) * R::HALF + mu * (q1[1] - q2[1]);
    res1[1] += f;
    res2[1] -= f;
    f = (vol1 * q1[2] - p1 * dx + vol2 * q2[2] - p2 * dx) * R::HALF + mu * (q1[2] - q2[2]);
    res1[2] += f;
    res2[2] -= f;
    f = (vol1 * (q1[3] + p1) + vol2 * (q2[3] + p2)) * R::HALF + mu * (q1[3] - q2[3]);
    res1[3] += f;
    res2[3] -= f;
}

/// `bres_calc`: boundary edge flux. Wall edges feel only pressure;
/// far-field edges flux against the freestream state. Scalar only: the
/// boundary loop is serial in every row, so the branch stays a branch.
#[inline(always)]
pub fn bres_calc<R: Real>(
    x1: &[R; 2],
    x2: &[R; 2],
    q1: &[R; 4],
    adt1: R,
    res1: &mut [R; 4],
    bound: i32,
    c: &Consts<R>,
) {
    let dx = x1[0] - x2[0];
    let dy = x1[1] - x2[1];

    let ri = R::ONE / q1[0];
    let p1 = c.gm1 * (q1[3] - R::HALF * ri * (q1[1] * q1[1] + q1[2] * q1[2]));

    if bound == BOUND_WALL {
        res1[1] += p1 * dy;
        res1[2] -= p1 * dx;
    } else {
        let vol1 = ri * (q1[1] * dy - q1[2] * dx);

        let ri2 = R::ONE / c.qinf[0];
        let p2 =
            c.gm1 * (c.qinf[3] - R::HALF * ri2 * (c.qinf[1] * c.qinf[1] + c.qinf[2] * c.qinf[2]));
        let vol2 = ri2 * (c.qinf[1] * dy - c.qinf[2] * dx);

        let mu = adt1 * c.eps;

        let mut f;
        f = R::HALF * (vol1 * q1[0] + vol2 * c.qinf[0]) + mu * (q1[0] - c.qinf[0]);
        res1[0] += f;
        f = R::HALF * (vol1 * q1[1] + p1 * dy + vol2 * c.qinf[1] + p2 * dy)
            + mu * (q1[1] - c.qinf[1]);
        res1[1] += f;
        f = R::HALF * (vol1 * q1[2] - p1 * dx + vol2 * c.qinf[2] - p2 * dx)
            + mu * (q1[2] - c.qinf[2]);
        res1[2] += f;
        f = R::HALF * (vol1 * (q1[3] + p1) + vol2 * (c.qinf[3] + p2)) + mu * (q1[3] - c.qinf[3]);
        res1[3] += f;
    }
}

/// `update`: advance the state, zero the residual, accumulate the
/// residual RMS (direct, global reduction).
#[inline(always)]
pub fn update<R: Real, T: Lane<R>>(
    qold: &[T; 4],
    q: &mut [T; 4],
    res: &mut [T; 4],
    adt: T,
    rms: &mut T,
) {
    let adti = T::splat(R::ONE) / adt;
    for n in 0..4 {
        let del = adti * res[n];
        q[n] = qold[n] - del;
        res[n] = T::splat(R::ZERO);
        *rms += del * del;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_mesh::generators::BOUND_FARFIELD;

    fn c64() -> Consts<f64> {
        Consts::default()
    }

    #[test]
    fn save_soln_copies() {
        let q = [1.0, 2.0, 3.0, 4.0];
        let mut qold = [0.0; 4];
        save_soln(&q, &mut qold);
        assert_eq!(qold, q);
    }

    #[test]
    fn adt_positive_for_physical_state() {
        let c = c64();
        // unit square cell, freestream state
        let x = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]];
        let mut adt = 0.0;
        adt_calc(&x[0], &x[1], &x[2], &x[3], &c.qinf, &mut adt, &c);
        assert!(adt > 0.0 && adt.is_finite());
        // sound speed dominates at Mach 0.4: adt ≈ (2u + 4c)/cfl-ish scale
        assert!(adt < 20.0);
    }

    #[test]
    fn res_calc_is_conservative_and_zero_for_uniform_flow() {
        let c = c64();
        // For uniform q on both sides, the flux exists but the mu term
        // vanishes and res1 gains exactly what res2 loses.
        let x1 = [0.3, 0.0];
        let x2 = [0.3, 1.0];
        let mut res1 = [0.0; 4];
        let mut res2 = [0.0; 4];
        res_calc(
            &x1, &x2, &c.qinf, &c.qinf, 1.0, 1.0, &mut res1, &mut res2, &c,
        );
        for n in 0..4 {
            assert!(
                (res1[n] + res2[n]).abs() < 1e-14,
                "conservation violated at {n}"
            );
        }
    }

    #[test]
    fn wall_applies_pressure_only() {
        let c = c64();
        // vertical wall edge a→b with the cell on its right
        let x1 = [0.0, 1.0];
        let x2 = [0.0, 0.0];
        let mut res = [0.0; 4];
        bres_calc(&x1, &x2, &c.qinf, 1.0, &mut res, BOUND_WALL, &c);
        assert_eq!(res[0], 0.0, "no mass flux through a wall");
        assert_eq!(res[3], 0.0, "no energy flux through a wall");
        assert!(res[1] != 0.0, "pressure force acts in x");
    }

    #[test]
    fn farfield_at_freestream_is_in_equilibrium_modulo_flux() {
        let c = c64();
        let x1 = [0.0, 0.0];
        let x2 = [0.0, 1.0];
        let mut res = [0.0; 4];
        bres_calc(&x1, &x2, &c.qinf, 1.0, &mut res, BOUND_FARFIELD, &c);
        // with q == qinf the dissipation term vanishes; the flux is the
        // plain freestream flux through the edge
        assert!(res.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn update_advances_and_zeroes_residual() {
        let qold = [1.0, 0.0, 0.0, 2.0];
        let mut q = [0.0; 4];
        let mut res = [0.1, 0.2, -0.1, 0.0];
        let mut rms = 0.0;
        update(&qold, &mut q, &mut res, 2.0, &mut rms);
        assert_eq!(q[0], 1.0 - 0.05);
        assert_eq!(q[1], -0.1);
        assert_eq!(res, [0.0; 4]);
        assert!((rms - (0.05f64 * 0.05 + 0.1 * 0.1 + 0.05 * 0.05)).abs() < 1e-15);
    }

    #[test]
    fn kernels_agree_across_precision() {
        let cd = Consts::<f64>::default();
        let cs = Consts::<f32>::default();
        let x1 = [0.25, 0.5];
        let x2 = [0.75, 0.5];
        let q1 = [1.1, 0.3, -0.1, 2.4];
        let q2 = [0.9, 0.5, 0.2, 2.6];
        let mut r1 = [0.0f64; 4];
        let mut r2 = [0.0f64; 4];
        res_calc(&x1, &x2, &q1, &q2, 1.3, 0.8, &mut r1, &mut r2, &cd);
        let x1s = x1.map(|v| v as f32);
        let x2s = x2.map(|v| v as f32);
        let q1s = q1.map(|v| v as f32);
        let q2s = q2.map(|v| v as f32);
        let mut r1s = [0.0f32; 4];
        let mut r2s = [0.0f32; 4];
        res_calc(&x1s, &x2s, &q1s, &q2s, 1.3, 0.8, &mut r1s, &mut r2s, &cs);
        for n in 0..4 {
            assert!((r1[n] - r1s[n] as f64).abs() < 1e-6, "component {n}");
        }
    }
}
