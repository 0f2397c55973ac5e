//! The `L`-lane calls of the Airfoil kernels (paper Fig. 3b), checked
//! lane by lane: the vector kernel *is* the scalar one, so lane `k` of
//! every `L`-lane call is the scalar call on lane `k`'s arguments, bit for
//! bit, at f64×4, f64×8, f32×8 and f32×4, on seeded random rows (see
//! [`crate::lane_check`]). `bres_calc` has no vector caller.

mod tests {
    use crate::airfoil::kernels::{adt_calc, res_calc, save_soln, update};
    use crate::airfoil::Consts;
    use crate::lane_check::{at_every_width, lanes_case, or_zero, take};
    use ump_mesh::SplitMix64;
    use ump_simd::Real;

    /// (ρ, ρu, ρv, ρE) with a positive pressure.
    fn q(r: &mut SplitMix64) -> Vec<f64> {
        let (u, v) = (r.next_f64() - 0.5, r.next_f64() - 0.5);
        vec![1.0 + r.next_f64(), u, v, 2.0 + r.next_f64()]
    }

    /// Node coordinates.
    fn xy(r: &mut SplitMix64) -> Vec<f64> {
        vec![r.next_f64(), r.next_f64()]
    }

    /// A residual row, each entry a signed zero one time in four (the
    /// chunk bodies' start).
    fn res(r: &mut SplitMix64) -> Vec<f64> {
        (0..4).map(|_| or_zero(r.next_f64() - 0.5, r)).collect()
    }

    #[test]
    fn adt_calc_vec_matches_scalar_lanewise() {
        fn case<R: Real, const L: usize>() {
            let c = Consts::<R>::default();
            let draw = |r: &mut SplitMix64| [xy(r), xy(r), xy(r), xy(r), q(r)].concat();
            lanes_case!("adt_calc", 2, draw, |x| {
                let mut adt = x[0];
                adt_calc(
                    &take(x, 0),
                    &take(x, 2),
                    &take(x, 4),
                    &take(x, 6),
                    &take(x, 8),
                    &mut adt,
                    &c,
                );
                vec![adt]
            });
        }
        at_every_width!(case);
    }

    #[test]
    fn res_calc_vec_matches_scalar_lanewise() {
        fn case<R: Real, const L: usize>() {
            let c = Consts::<R>::default();
            let draw = |r: &mut SplitMix64| {
                let adt = vec![0.5 + r.next_f64(), 0.5 + r.next_f64()];
                [xy(r), xy(r), q(r), q(r), adt, res(r), res(r)].concat()
            };
            lanes_case!("res_calc", 3, draw, |x| {
                let (mut res1, mut res2) = (take(x, 14), take(x, 18));
                res_calc(
                    &take(x, 0),
                    &take(x, 2),
                    &take(x, 4),
                    &take(x, 8),
                    x[12],
                    x[13],
                    &mut res1,
                    &mut res2,
                    &c,
                );
                [res1, res2].concat()
            });
        }
        at_every_width!(case);
    }

    /// The direct cell loops: `save_soln` and `update`.
    #[test]
    fn update_vec_matches_scalar_lanewise() {
        fn case<R: Real, const L: usize>() {
            lanes_case!("save_soln", 1, q, |x| {
                let mut qold = take(x, 0);
                save_soln(&take(x, 0), &mut qold);
                qold.to_vec()
            });
            let draw = |r: &mut SplitMix64| {
                let (adt, rms) = (0.5 + r.next_f64(), r.next_f64());
                [q(r), q(r), res(r), vec![adt, rms]].concat()
            };
            lanes_case!("update", 4, draw, |x| {
                let (mut q, mut res, mut rms) = (take(x, 4), take(x, 8), x[13]);
                update(&take(x, 0), &mut q, &mut res, x[12], &mut rms);
                [&q[..], &res[..], &[rms]].concat()
            });
        }
        at_every_width!(case);
    }
}
