//! The Volna user kernels, vector form — identical arithmetic to
//! `kernels`, over `VecR<R, L>` lanes, with `max`/`min`/`select` in place
//! of branches (the single-precision Phi shape runs these at L = 16).

use ump_simd::{Real, VecR};

/// Vector `compute_flux` over `L` edges: takes gathered state, returns
/// the flux pack `(f_h, f_hu, f_hv, λ·len)`.
#[inline(always)]
pub fn compute_flux_vec<R: Real, const L: usize>(
    geom: &[VecR<R, L>; 4],
    wl: &[VecR<R, L>; 4],
    wr: &[VecR<R, L>; 4],
    g: R,
    h_min: R,
) -> [VecR<R, L>; 4] {
    let (nx, ny, len) = (geom[0], geom[1], geom[2]);
    let hmin = VecR::<R, L>::splat(h_min);
    let half = VecR::<R, L>::splat(R::HALF);
    let gv = VecR::<R, L>::splat(g);

    let hl = wl[0].max(hmin);
    let hr = wr[0].max(hmin);
    let (ul, vl) = (wl[1] / hl, wl[2] / hl);
    let (ur, vr) = (wr[1] / hr, wr[2] / hr);
    let unl = ul * nx + vl * ny;
    let unr = ur * nx + vr * ny;
    let cl = (gv * hl).sqrt();
    let cr = (gv * hr).sqrt();
    let lambda = (unl.abs() + cl).max(unr.abs() + cr);

    let pl = half * gv * hl * hl;
    let pr = half * gv * hr * hr;

    let fl0 = hl * unl;
    let fr0 = hr * unr;
    let fl1 = wl[1] * unl + pl * nx;
    let fr1 = wr[1] * unr + pr * nx;
    let fl2 = wl[2] * unl + pl * ny;
    let fr2 = wr[2] * unr + pr * ny;

    // mass dissipation on the free-surface difference (see scalar kernel)
    let deta = (wr[0] + wr[3]) - (wl[0] + wl[3]);
    [
        (half * (fl0 + fr0) - half * lambda * deta) * len,
        (half * (fl1 + fr1) - half * lambda * (wr[1] - wl[1])) * len,
        (half * (fl2 + fr2) - half * lambda * (wr[2] - wl[2])) * len,
        lambda * len,
    ]
}

/// Vector `numerical_flux`: lane-wise CFL candidates folded into the
/// caller's running minimum vector.
#[inline(always)]
pub fn numerical_flux_vec<R: Real, const L: usize>(
    eflux3: VecR<R, L>,
    area_l: VecR<R, L>,
    area_r: VecR<R, L>,
    dt_acc: &mut VecR<R, L>,
    cfl: R,
) {
    let lam = eflux3.max(VecR::splat(R::from_f64(1e-12)));
    let dt = area_l.min(area_r) * VecR::splat(cfl) / lam;
    *dt_acc = dt_acc.min(dt);
}

/// Vector `space_disc`: returns the increments for both cells
/// (the driver scatters them lane by lane, under the two-level plan's
/// coloring).
#[inline(always)]
pub fn space_disc_vec<R: Real, const L: usize>(
    geom: &[VecR<R, L>; 4],
    eflux: &[VecR<R, L>; 4],
    wl: &[VecR<R, L>; 4],
    wr: &[VecR<R, L>; 4],
    g: R,
) -> ([VecR<R, L>; 4], [VecR<R, L>; 4]) {
    let (nx, ny, len) = (geom[0], geom[1], geom[2]);
    let gv = VecR::<R, L>::splat(g);
    let half = VecR::<R, L>::splat(R::HALF);
    let b_face = half * (wl[3] + wr[3]);
    let sl = gv * wl[0] * b_face * len;
    let sr = gv * wr[0] * b_face * len;
    let zero = VecR::<R, L>::zero();
    (
        [eflux[0], eflux[1] + sl * nx, eflux[2] + sl * ny, zero],
        [
            -eflux[0],
            -(eflux[1]) - sr * nx,
            -(eflux[2]) - sr * ny,
            zero,
        ],
    )
}

/// Vector `RK_1` over `L` cells.
#[inline(always)]
pub fn rk_1_vec<R: Real, const L: usize>(
    w_old: &[VecR<R, L>; 4],
    res: &mut [VecR<R, L>; 4],
    w1: &mut [VecR<R, L>; 4],
    area: VecR<R, L>,
    dt: R,
) {
    let f = VecR::<R, L>::splat(dt) / area;
    for n in 0..4 {
        w1[n] = w_old[n] - f * res[n];
        res[n] = VecR::zero();
    }
}

/// Vector `RK_2` over `L` cells.
#[inline(always)]
pub fn rk_2_vec<R: Real, const L: usize>(
    w_old: &[VecR<R, L>; 4],
    w1: &[VecR<R, L>; 4],
    res: &mut [VecR<R, L>; 4],
    w: &mut [VecR<R, L>; 4],
    area: VecR<R, L>,
    dt: R,
) {
    let f = VecR::<R, L>::splat(dt) / area;
    let half = VecR::<R, L>::splat(R::HALF);
    for n in 0..4 {
        w[n] = half * (w_old[n] + w1[n] - f * res[n]);
        res[n] = VecR::zero();
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernels;
    use super::*;
    use ump_mesh::SplitMix64;

    const G: f64 = super::super::GRAVITY;

    #[test]
    fn compute_flux_vec_matches_scalar_lanewise() {
        let mut rng = SplitMix64::new(5);
        let mut r = move || rng.next_f64();
        for _ in 0..20 {
            let geoms: Vec<[f64; 4]> = (0..4)
                .map(|_| {
                    let a = r() * std::f64::consts::TAU;
                    [a.cos(), a.sin(), 0.5 + r(), 0.0]
                })
                .collect();
            let wls: Vec<[f64; 4]> = (0..4)
                .map(|_| [0.5 + r(), r() - 0.5, r() - 0.5, -1.0 - r()])
                .collect();
            let wrs: Vec<[f64; 4]> = (0..4)
                .map(|_| [0.5 + r(), r() - 0.5, r() - 0.5, -1.0 - r()])
                .collect();

            let pack = |s: &Vec<[f64; 4]>| {
                std::array::from_fn::<_, 4, _>(|d| VecR::<f64, 4>::from_fn(|l| s[l][d]))
            };
            let vf = compute_flux_vec(&pack(&geoms), &pack(&wls), &pack(&wrs), G, 1e-6);
            for l in 0..4 {
                let mut sf = [0.0f64; 4];
                kernels::compute_flux(&geoms[l], &wls[l], &wrs[l], &mut sf, G, 1e-6);
                for d in 0..4 {
                    assert!(
                        (vf[d].lane(l) - sf[d]).abs() < 1e-11 * (1.0 + sf[d].abs()),
                        "lane {l} dim {d}: {} vs {}",
                        vf[d].lane(l),
                        sf[d]
                    );
                }
            }
        }
    }

    #[test]
    fn space_disc_vec_matches_scalar_lanewise() {
        let geom = [
            [0.8, 0.6, 1.2, 0.0],
            [0.0, 1.0, 0.7, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [-0.6, 0.8, 0.9, 0.0],
        ];
        let wl = [[2.0, 0.1, 0.0, -2.0]; 4];
        let wr = [[1.5, 0.0, 0.2, -1.4]; 4];
        let ef = [[1.0, -0.5, 0.25, 2.0]; 4];
        let pack = |s: &[[f64; 4]; 4]| {
            std::array::from_fn::<_, 4, _>(|d| VecR::<f64, 4>::from_fn(|l| s[l][d]))
        };
        let (vl, vr) = space_disc_vec(&pack(&geom), &pack(&ef), &pack(&wl), &pack(&wr), G);
        for l in 0..4 {
            let mut rl = [0.0f64; 4];
            let mut rr = [0.0f64; 4];
            kernels::space_disc(&geom[l], &ef[l], &wl[l], &wr[l], &mut rl, &mut rr, G);
            for d in 0..4 {
                assert!(
                    (vl[d].lane(l) - rl[d]).abs() < 1e-12,
                    "left lane {l} dim {d}"
                );
                assert!(
                    (vr[d].lane(l) - rr[d]).abs() < 1e-12,
                    "right lane {l} dim {d}"
                );
            }
        }
    }

    #[test]
    fn numerical_flux_vec_minimum_matches_scalar_fold() {
        let lam = VecR::<f64, 4>::from_array([10.0, 2.0, 5.0, 40.0]);
        let al = VecR::<f64, 4>::splat(4.0);
        let ar = VecR::<f64, 4>::from_array([8.0, 3.0, 4.0, 5.0]);
        let mut acc = VecR::<f64, 4>::splat(f64::INFINITY);
        numerical_flux_vec(lam, al, ar, &mut acc, 0.4);
        let mut dt = f64::INFINITY;
        for l in 0..4 {
            let geom = [0.0, 0.0, 1.0, 0.0];
            let ef = [0.0, 0.0, 0.0, lam.lane(l)];
            kernels::numerical_flux(&geom, &ef, al.lane(l), ar.lane(l), &mut dt, 0.4);
        }
        assert!((acc.reduce_min() - dt).abs() < 1e-15);
    }

    #[test]
    fn rk_vec_match_scalar() {
        let w_old = [[2.0, 0.2, -0.1, -2.0]; 4];
        let res_in = [[0.4, -0.2, 0.6, 0.0]; 4];
        let pack = |s: &[[f64; 4]; 4]| {
            std::array::from_fn::<_, 4, _>(|d| VecR::<f64, 4>::from_fn(|l| s[l][d]))
        };
        let mut resv = pack(&res_in);
        let mut w1v = [VecR::<f64, 4>::zero(); 4];
        rk_1_vec(&pack(&w_old), &mut resv, &mut w1v, VecR::splat(2.0), 0.3);

        let mut res_s = res_in[0];
        let mut w1_s = [0.0; 4];
        kernels::rk_1(&w_old[0], &mut res_s, &mut w1_s, 2.0, 0.3);
        for d in 0..4 {
            assert_eq!(w1v[d].lane(0), w1_s[d]);
            assert_eq!(resv[d].lane(0), 0.0);
        }

        let mut res2v = pack(&res_in);
        let mut wv = [VecR::<f64, 4>::zero(); 4];
        rk_2_vec(
            &pack(&w_old),
            &w1v,
            &mut res2v,
            &mut wv,
            VecR::splat(2.0),
            0.3,
        );
        let mut res2_s = res_in[0];
        let mut w_s = [0.0; 4];
        kernels::rk_2(&w_old[0], &w1_s, &mut res2_s, &mut w_s, 2.0, 0.3);
        for d in 0..4 {
            assert_eq!(wv[d].lane(0), w_s[d]);
        }
    }
}
