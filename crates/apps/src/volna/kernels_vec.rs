//! The `L`-lane calls of the Volna kernels, checked lane by lane: lane `k`
//! of every `L`-lane call is the scalar call on lane `k`'s arguments, bit
//! for bit, at f64×4, f64×8, f32×8 and f32×4 (see [`crate::lane_check`]),
//! on seeded random rows with dry cells (`h < h_min`, clamped), still
//! water (equal states, zero momenta) and signed-zero fluxes and
//! residuals. `bc_flux` has no vector caller.

mod tests {
    use crate::lane_check::{at_every_width, lanes_case, or_zero, take};
    use crate::volna::kernels::{compute_flux, numerical_flux, rk_1, rk_2, sim_1, space_disc};
    use crate::volna::{CFL, GRAVITY, H_MIN};
    use ump_mesh::SplitMix64;
    use ump_simd::Real;

    /// (h, hu, hv, b): dry one time in four, momenta zero one time in four.
    fn w(r: &mut SplitMix64) -> Vec<f64> {
        let h = match r.next_below(8) {
            0 => 0.0,
            1 => 0.5 * H_MIN,
            _ => 0.5 + r.next_f64(),
        };
        let (hu, hv) = (
            or_zero(r.next_f64() - 0.5, r),
            or_zero(r.next_f64() - 0.5, r),
        );
        vec![h, hu, hv, -1.0 - r.next_f64()]
    }

    /// The left state, then a right state or the left again (still water
    /// across the edge).
    fn w2(r: &mut SplitMix64) -> Vec<f64> {
        let wl = w(r);
        let wr = if r.next_below(4) == 0 {
            wl.clone()
        } else {
            w(r)
        };
        [wl, wr].concat()
    }

    /// A unit normal, the edge length and the unused slot 3.
    fn geom(r: &mut SplitMix64) -> Vec<f64> {
        let a = r.next_f64() * std::f64::consts::TAU;
        vec![a.cos(), a.sin(), 0.5 + r.next_f64(), 0.0]
    }

    /// A flux or residual row, each entry a signed zero one time in four.
    fn signed(r: &mut SplitMix64) -> Vec<f64> {
        (0..4).map(|_| or_zero(r.next_f64() - 0.5, r)).collect()
    }

    #[test]
    fn compute_flux_vec_matches_scalar_lanewise() {
        fn case<R: Real, const L: usize>() {
            let (g, h_min) = (R::from_f64(GRAVITY), R::from_f64(H_MIN));
            let draw = |r: &mut SplitMix64| [geom(r), w2(r), signed(r)].concat();
            lanes_case!("compute_flux", 12, draw, |x| {
                let mut eflux = take(x, 12);
                compute_flux(&take(x, 0), &take(x, 4), &take(x, 8), &mut eflux, g, h_min);
                eflux.to_vec()
            });
        }
        at_every_width!(case);
    }

    /// The `L`-lane call folds `dt_min` per lane; the lanes are min-reduced
    /// after the loop, so each lane must be the scalar fold's step.
    #[test]
    fn numerical_flux_vec_minimum_matches_scalar_fold() {
        fn case<R: Real, const L: usize>() {
            let cfl = R::from_f64(CFL);
            // λ·len zero (clamped) one time in four
            let draw = |r: &mut SplitMix64| {
                let lam_len = or_zero(10.0 * r.next_f64(), r);
                let areas = vec![0.1 + r.next_f64(), 0.1 + r.next_f64()];
                let dt_min = if r.next_below(4) == 0 {
                    f64::INFINITY
                } else {
                    r.next_f64()
                };
                [vec![lam_len], areas, vec![dt_min]].concat()
            };
            lanes_case!("numerical_flux", 13, draw, |x| {
                let mut dt_min = x[3];
                numerical_flux(x[0], x[1], x[2], &mut dt_min, cfl);
                vec![dt_min]
            });
        }
        at_every_width!(case);
    }

    #[test]
    fn space_disc_vec_matches_scalar_lanewise() {
        fn case<R: Real, const L: usize>() {
            let g = R::from_f64(GRAVITY);
            let draw =
                |r: &mut SplitMix64| [geom(r), signed(r), w2(r), signed(r), signed(r)].concat();
            lanes_case!("space_disc", 14, draw, |x| {
                let (mut res_l, mut res_r) = (take(x, 16), take(x, 20));
                let (ge, ef) = (take(x, 0), take(x, 4));
                space_disc(
                    &ge,
                    &ef,
                    &take(x, 8),
                    &take(x, 12),
                    &mut res_l,
                    &mut res_r,
                    g,
                );
                [res_l, res_r].concat()
            });
        }
        at_every_width!(case);
    }

    /// The direct cell loops: `sim_1`, `RK_1` and `RK_2`.
    #[test]
    fn rk_vec_match_scalar() {
        fn case<R: Real, const L: usize>() {
            let dt = R::from_f64(0.01);
            lanes_case!("sim_1", 11, w, |x| {
                let mut w_old = take(x, 0);
                sim_1(&take(x, 0), &mut w_old);
                w_old.to_vec()
            });
            let draw =
                |r: &mut SplitMix64| [w(r), w(r), signed(r), vec![0.1 + r.next_f64()]].concat();
            lanes_case!("RK_1", 15, draw, |x| {
                let (mut res, mut w1) = (take(x, 8), take(x, 4));
                rk_1(&take(x, 0), &mut res, &mut w1, x[12], dt);
                [w1, res].concat()
            });
            let draw = |r: &mut SplitMix64| {
                [w(r), w(r), signed(r), w(r), vec![0.1 + r.next_f64()]].concat()
            };
            lanes_case!("RK_2", 16, draw, |x| {
                let (mut res, mut w) = (take(x, 8), take(x, 12));
                rk_2(&take(x, 0), &take(x, 4), &mut res, &mut w, x[16], dt);
                [w, res].concat()
            });
        }
        at_every_width!(case);
    }
}
