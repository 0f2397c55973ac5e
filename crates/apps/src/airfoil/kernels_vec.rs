//! The Airfoil user kernels, vector form — `res_calc_vec` and friends
//! from paper Fig. 3b: identical arithmetic to the scalar kernels, but
//! over `VecR<R, L>` lanes, so the same source instantiates at AVX
//! (L = 4 doubles / 8 floats) and IMCI/AVX-512 (8 / 16) widths.
//!
//! Control flow is expressed with masks and `select` (paper §4.2's
//! requirement); `bres_calc` demonstrates it even though production
//! drivers run the tiny boundary set scalar.

use ump_simd::{Mask, Real, VecR};

use super::Consts;

/// Vector `adt_calc`: local timestep over `L` cells at once.
/// `x*` are the gathered node coordinates (component-of-lane layout:
/// `x1[0]` holds the x-coordinates of node 1 of all `L` cells).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn adt_calc_vec<R: Real, const L: usize>(
    x1: &[VecR<R, L>; 2],
    x2: &[VecR<R, L>; 2],
    x3: &[VecR<R, L>; 2],
    x4: &[VecR<R, L>; 2],
    q: &[VecR<R, L>; 4],
    c: &Consts<R>,
) -> VecR<R, L> {
    let ri = q[0].recip();
    let u = ri * q[1];
    let v = ri * q[2];
    let cs = ((ri * q[3] - (u * u + v * v) * R::HALF) * (c.gam * c.gm1)).sqrt();

    let mut acc = VecR::<R, L>::zero();
    let mut side = |xa: &[VecR<R, L>; 2], xb: &[VecR<R, L>; 2]| {
        let dx = xa[0] - xb[0];
        let dy = xa[1] - xb[1];
        acc += (u * dy - v * dx).abs() + cs * (dx * dx + dy * dy).sqrt();
    };
    side(x2, x1);
    side(x3, x2);
    side(x4, x3);
    side(x1, x4);
    acc * (R::ONE / c.cfl)
}

/// Vector `res_calc`: fluxes for `L` edges at once; increments are
/// returned in `res1`/`res2` accumulators for the driver to scatter
/// (lane by lane, under the two-level plan's coloring).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn res_calc_vec<R: Real, const L: usize>(
    x1: &[VecR<R, L>; 2],
    x2: &[VecR<R, L>; 2],
    q1: &[VecR<R, L>; 4],
    q2: &[VecR<R, L>; 4],
    adt1: VecR<R, L>,
    adt2: VecR<R, L>,
    res1: &mut [VecR<R, L>; 4],
    res2: &mut [VecR<R, L>; 4],
    c: &Consts<R>,
) {
    let dx = x1[0] - x2[0];
    let dy = x1[1] - x2[1];

    let half = VecR::<R, L>::splat(R::HALF);
    let gm1 = VecR::<R, L>::splat(c.gm1);

    let mut ri = q1[0].recip();
    let p1 = gm1 * (q1[3] - half * ri * (q1[1] * q1[1] + q1[2] * q1[2]));
    let vol1 = ri * (q1[1] * dy - q1[2] * dx);

    ri = q2[0].recip();
    let p2 = gm1 * (q2[3] - half * ri * (q2[1] * q2[1] + q2[2] * q2[2]));
    let vol2 = ri * (q2[1] * dy - q2[2] * dx);

    let mu = half * (adt1 + adt2) * c.eps;

    let mut f;
    f = half * (vol1 * q1[0] + vol2 * q2[0]) + mu * (q1[0] - q2[0]);
    res1[0] += f;
    res2[0] -= f;
    f = half * (vol1 * q1[1] + p1 * dy + vol2 * q2[1] + p2 * dy) + mu * (q1[1] - q2[1]);
    res1[1] += f;
    res2[1] -= f;
    f = half * (vol1 * q1[2] - p1 * dx + vol2 * q2[2] - p2 * dx) + mu * (q1[2] - q2[2]);
    res1[2] += f;
    res2[2] -= f;
    f = half * (vol1 * (q1[3] + p1) + vol2 * (q2[3] + p2)) + mu * (q1[3] - q2[3]);
    res1[3] += f;
    res2[3] -= f;
}

/// Vector `bres_calc`: branchless boundary flux using a wall mask and
/// `select` — the paper's prescribed treatment of kernel conditionals.
/// `wall` lanes apply pressure only; others the far-field flux.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn bres_calc_vec<R: Real, const L: usize>(
    x1: &[VecR<R, L>; 2],
    x2: &[VecR<R, L>; 2],
    q1: &[VecR<R, L>; 4],
    adt1: VecR<R, L>,
    res1: &mut [VecR<R, L>; 4],
    wall: Mask<L>,
    c: &Consts<R>,
) {
    let dx = x1[0] - x2[0];
    let dy = x1[1] - x2[1];

    let half = VecR::<R, L>::splat(R::HALF);
    let gm1 = VecR::<R, L>::splat(c.gm1);
    let zero = VecR::<R, L>::zero();

    let ri = q1[0].recip();
    let p1 = gm1 * (q1[3] - half * ri * (q1[1] * q1[1] + q1[2] * q1[2]));

    // wall branch contributions
    let wall1 = p1 * dy;
    let wall2 = -(p1 * dx);

    // far-field branch contributions
    let vol1 = ri * (q1[1] * dy - q1[2] * dx);
    let qinf: [VecR<R, L>; 4] = [
        VecR::splat(c.qinf[0]),
        VecR::splat(c.qinf[1]),
        VecR::splat(c.qinf[2]),
        VecR::splat(c.qinf[3]),
    ];
    let ri2 = qinf[0].recip();
    let p2 = gm1 * (qinf[3] - half * ri2 * (qinf[1] * qinf[1] + qinf[2] * qinf[2]));
    let vol2 = ri2 * (qinf[1] * dy - qinf[2] * dx);
    let mu = adt1 * c.eps;

    let ff0 = half * (vol1 * q1[0] + vol2 * qinf[0]) + mu * (q1[0] - qinf[0]);
    let ff1 = half * (vol1 * q1[1] + p1 * dy + vol2 * qinf[1] + p2 * dy) + mu * (q1[1] - qinf[1]);
    let ff2 = half * (vol1 * q1[2] - p1 * dx + vol2 * qinf[2] - p2 * dx) + mu * (q1[2] - qinf[2]);
    let ff3 = half * (vol1 * (q1[3] + p1) + vol2 * (qinf[3] + p2)) + mu * (q1[3] - qinf[3]);

    res1[0] += VecR::select(wall, zero, ff0);
    res1[1] += VecR::select(wall, wall1, ff1);
    res1[2] += VecR::select(wall, wall2, ff2);
    res1[3] += VecR::select(wall, zero, ff3);
}

/// Vector `update`: advance `L` cells, returning the lane-summed squared
/// residual for the caller's reduction accumulator.
#[inline(always)]
pub fn update_vec<R: Real, const L: usize>(
    qold: &[VecR<R, L>; 4],
    q: &mut [VecR<R, L>; 4],
    res: &mut [VecR<R, L>; 4],
    adt: VecR<R, L>,
    rms_acc: &mut VecR<R, L>,
) {
    let adti = adt.recip();
    for n in 0..4 {
        let del = adti * res[n];
        q[n] = qold[n] - del;
        res[n] = VecR::zero();
        *rms_acc += del * del;
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernels;
    use super::*;
    use ump_mesh::generators::BOUND_WALL;
    use ump_mesh::SplitMix64;

    /// Drive the vector kernel with 4 random lanes and compare each lane
    /// against the scalar kernel — the fundamental Fig. 3b equivalence.
    #[test]
    fn res_calc_vec_matches_scalar_lanewise() {
        let c = Consts::<f64>::default();
        let mut rng = SplitMix64::new(42);
        let mut r = move || 0.5 + rng.next_f64();
        for _ in 0..10 {
            let x1s: Vec<[f64; 2]> = (0..4).map(|_| [r(), r()]).collect();
            let x2s: Vec<[f64; 2]> = (0..4).map(|_| [r(), r()]).collect();
            let q1s: Vec<[f64; 4]> = (0..4).map(|_| [r() + 1.0, r(), r(), r() + 3.0]).collect();
            let q2s: Vec<[f64; 4]> = (0..4).map(|_| [r() + 1.0, r(), r(), r() + 3.0]).collect();
            let a1: Vec<f64> = (0..4).map(|_| r()).collect();
            let a2: Vec<f64> = (0..4).map(|_| r()).collect();

            // scalar reference per lane
            let mut ref1 = [[0.0f64; 4]; 4];
            let mut ref2 = [[0.0f64; 4]; 4];
            for l in 0..4 {
                kernels::res_calc(
                    &x1s[l],
                    &x2s[l],
                    &q1s[l],
                    &q2s[l],
                    a1[l],
                    a2[l],
                    &mut ref1[l],
                    &mut ref2[l],
                    &c,
                );
            }

            // vector call
            let pack2 = |s: &Vec<[f64; 2]>| {
                [
                    VecR::<f64, 4>::from_fn(|l| s[l][0]),
                    VecR::<f64, 4>::from_fn(|l| s[l][1]),
                ]
            };
            let pack4 = |s: &Vec<[f64; 4]>| {
                std::array::from_fn::<_, 4, _>(|d| VecR::<f64, 4>::from_fn(|l| s[l][d]))
            };
            let mut v1 = [VecR::<f64, 4>::zero(); 4];
            let mut v2 = [VecR::<f64, 4>::zero(); 4];
            res_calc_vec(
                &pack2(&x1s),
                &pack2(&x2s),
                &pack4(&q1s),
                &pack4(&q2s),
                VecR::from_fn(|l| a1[l]),
                VecR::from_fn(|l| a2[l]),
                &mut v1,
                &mut v2,
                &c,
            );
            for l in 0..4 {
                for d in 0..4 {
                    assert!(
                        (v1[d].lane(l) - ref1[l][d]).abs() < 1e-13,
                        "res1 lane {l} dim {d}"
                    );
                    assert!(
                        (v2[d].lane(l) - ref2[l][d]).abs() < 1e-13,
                        "res2 lane {l} dim {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn adt_calc_vec_matches_scalar_lanewise() {
        let c = Consts::<f64>::default();
        let mut rng = SplitMix64::new(7);
        let mut r = move || 0.25 + rng.next_f64();
        let xs: Vec<[[f64; 2]; 4]> = (0..4)
            .map(|_| {
                [
                    [r(), r()],
                    [r() + 1.0, r()],
                    [r() + 1.0, r() + 1.0],
                    [r(), r() + 1.0],
                ]
            })
            .collect();
        let qs: Vec<[f64; 4]> = (0..4).map(|_| [1.0 + r(), r(), r(), 3.0 + r()]).collect();

        let mut reference = [0.0f64; 4];
        for l in 0..4 {
            kernels::adt_calc(
                &xs[l][0],
                &xs[l][1],
                &xs[l][2],
                &xs[l][3],
                &qs[l],
                &mut reference[l],
                &c,
            );
        }
        let pack_node = |i: usize| {
            [
                VecR::<f64, 4>::from_fn(|l| xs[l][i][0]),
                VecR::<f64, 4>::from_fn(|l| xs[l][i][1]),
            ]
        };
        let q = std::array::from_fn::<_, 4, _>(|d| VecR::<f64, 4>::from_fn(|l| qs[l][d]));
        let adt = adt_calc_vec(
            &pack_node(0),
            &pack_node(1),
            &pack_node(2),
            &pack_node(3),
            &q,
            &c,
        );
        for l in 0..4 {
            assert!((adt.lane(l) - reference[l]).abs() < 1e-13, "lane {l}");
        }
    }

    #[test]
    fn update_vec_matches_scalar_lanewise() {
        let qold = std::array::from_fn::<_, 4, _>(|d| VecR::<f64, 4>::splat(d as f64 + 1.0));
        let mut qv = [VecR::<f64, 4>::zero(); 4];
        let mut resv = std::array::from_fn::<_, 4, _>(|d| VecR::<f64, 4>::splat(0.1 * d as f64));
        let mut rms_acc = VecR::<f64, 4>::zero();
        update_vec(&qold, &mut qv, &mut resv, VecR::splat(2.0), &mut rms_acc);

        let qold_s = [1.0, 2.0, 3.0, 4.0];
        let mut q_s = [0.0; 4];
        let mut res_s = [0.0, 0.1, 0.2, 0.3];
        let mut rms_s = 0.0;
        kernels::update(&qold_s, &mut q_s, &mut res_s, 2.0, &mut rms_s);

        for d in 0..4 {
            assert!((qv[d].lane(0) - q_s[d]).abs() < 1e-15);
            assert_eq!(resv[d].lane(0), 0.0);
        }
        assert!((rms_acc.reduce_sum() / 4.0 - rms_s).abs() < 1e-15);
    }

    #[test]
    fn bres_vec_select_matches_scalar_branches() {
        let c = Consts::<f64>::default();
        let x1 = [
            VecR::<f64, 4>::splat(0.0),
            VecR::from_fn(|l| l as f64 + 1.0),
        ];
        let x2 = [VecR::<f64, 4>::splat(0.0), VecR::from_fn(|l| l as f64)];
        let q1 = std::array::from_fn::<_, 4, _>(|d| VecR::<f64, 4>::splat(c.qinf[d] * 1.05));
        let adt = VecR::<f64, 4>::splat(1.2);
        // lanes 0,2 wall; lanes 1,3 farfield
        let wall = Mask::from_array([true, false, true, false]);
        let mut resv = [VecR::<f64, 4>::zero(); 4];
        bres_calc_vec(&x1, &x2, &q1, adt, &mut resv, wall, &c);

        for l in 0..4 {
            let x1s = [x1[0].lane(l), x1[1].lane(l)];
            let x2s = [x2[0].lane(l), x2[1].lane(l)];
            let q1s = std::array::from_fn::<_, 4, _>(|d| q1[d].lane(l));
            let mut ref_res = [0.0f64; 4];
            let bound = if wall.lane(l) { BOUND_WALL } else { 1 };
            kernels::bres_calc(&x1s, &x2s, &q1s, 1.2, &mut ref_res, bound, &c);
            for d in 0..4 {
                assert!(
                    (resv[d].lane(l) - ref_res[d]).abs() < 1e-13,
                    "lane {l} dim {d}"
                );
            }
        }
    }
}
