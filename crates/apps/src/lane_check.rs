//! The lane-equality check of the kernels: written once over
//! [`ump_simd::Lane`], lane `k` of an `L`-lane call must equal the scalar
//! call on lane `k`'s inputs, bit for bit.

use ump_mesh::SplitMix64;
use ump_simd::{Real, VecR};

/// Random draws of `L` lanes per kernel and shape.
const ROUNDS: usize = 64;

/// Asserts that `vector`, called on `L` lanes of arguments drawn by
/// `draw`, returns in lane `k` the bits `scalar` returns for lane `k`'s
/// arguments. Both closures take the kernel's arguments flat and return
/// its outputs flat (an in-place argument is in both).
pub(crate) fn lanes_equal_scalar<R: Real, const L: usize>(
    kernel: &str,
    seed: u64,
    draw: impl Fn(&mut SplitMix64) -> Vec<f64>,
    scalar: impl Fn(&[R]) -> Vec<R>,
    vector: impl Fn(&[VecR<R, L>]) -> Vec<VecR<R, L>>,
) {
    let mut rng = SplitMix64::new(seed);
    for round in 0..ROUNDS {
        let lanes: Vec<Vec<R>> = (0..L)
            .map(|_| draw(&mut rng).into_iter().map(R::from_f64).collect())
            .collect();
        let packed: Vec<VecR<R, L>> = (0..lanes[0].len())
            .map(|i| VecR::from_fn(|k| lanes[k][i]))
            .collect();
        let got = vector(&packed);
        for (k, args) in lanes.iter().enumerate() {
            let want = scalar(args);
            assert_eq!(got.len(), want.len(), "{kernel}: output count");
            for (o, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.lane(k).to_f64().to_bits(),
                    w.to_f64().to_bits(),
                    "{kernel} at {}x{L}, round {round}, lane {k}, output {o}: {} vs {w}",
                    R::NAME,
                    g.lane(k),
                );
            }
        }
    }
}

/// `lanes_case!(kernel, seed, draw, |x| body)`: [`lanes_equal_scalar`]
/// with one `body` — a kernel call on the flat arguments `x`, returning
/// its outputs — instantiated at the calling function's `R` and at
/// `VecR<R, L>`.
macro_rules! lanes_case {
    ($kernel:expr, $seed:expr, $draw:expr, |$x:ident| $body:expr) => {
        $crate::lane_check::lanes_equal_scalar::<R, L>(
            $kernel,
            $seed,
            $draw,
            |$x| $body,
            |$x| $body,
        )
    };
}
pub(crate) use lanes_case;

/// `at_every_width!(case)`: runs the generic `case::<R, L>` at f64×4,
/// f64×8, f32×8 and f32×4.
macro_rules! at_every_width {
    ($case:ident) => {{
        $case::<f64, 4>();
        $case::<f64, 8>();
        $case::<f32, 8>();
        $case::<f32, 4>();
    }};
}
pub(crate) use at_every_width;

/// `x[at..at + N]` as the row argument of a kernel.
pub(crate) fn take<T: Copy, const N: usize>(x: &[T], at: usize) -> [T; N] {
    std::array::from_fn(|i| x[at + i])
}

/// `v`, or a signed zero one time in four.
pub(crate) fn or_zero(v: f64, r: &mut SplitMix64) -> f64 {
    match r.next_below(8) {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    }
}
