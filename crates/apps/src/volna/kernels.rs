//! The Volna user kernels (see module docs for the scheme), each written
//! once over a [`Lane`] type `T`: `T = R` in `step_seq` and the scalar
//! bodies, `T = VecR<R, L>` in the `L`-lane chunk bodies, where the
//! dry-cell clamp is a lane `max`. Rows are `[T; D]` arrays; scalars
//! multiply from the right.

use ump_simd::{Lane, Real};

/// `sim_1`: save the state (direct copy, cells).
#[inline(always)]
pub fn sim_1<T: Copy>(w: &[T; 4], w_old: &mut [T; 4]) {
    for n in 0..4 {
        w_old[n] = w[n];
    }
}

/// `compute_flux`: Rusanov flux through one edge (gather both cell
/// states, write the edge flux + wave speed). `geom = (nx, ny, len, _)`,
/// normal out of the *left* argument's cell (`edge2cell[0]`). The flux is
/// pre-multiplied by the edge length; λ·len rides in slot 3.
#[inline(always)]
pub fn compute_flux<R: Real, T: Lane<R>>(
    geom: &[T; 4],
    wl: &[T; 4],
    wr: &[T; 4],
    eflux: &mut [T; 4],
    g: R,
    h_min: R,
) {
    let (nx, ny, len) = (geom[0], geom[1], geom[2]);

    let hl = wl[0].max(T::splat(h_min));
    let hr = wr[0].max(T::splat(h_min));
    let (hul, hvl) = (wl[1], wl[2]);
    let (hur, hvr) = (wr[1], wr[2]);

    let (ul, vl) = (hul / hl, hvl / hl);
    let (ur, vr) = (hur / hr, hvr / hr);
    let unl = ul * nx + vl * ny;
    let unr = ur * nx + vr * ny;
    let cl = (hl * g).sqrt();
    let cr = (hr * g).sqrt();
    let lambda = (unl.abs() + cl).max(unr.abs() + cr);

    let half_g = R::HALF * g;
    let pl = hl * half_g * hl;
    let pr = hr * half_g * hr;

    // physical fluxes projected on n
    let fl0 = hl * unl;
    let fr0 = hr * unr;
    let fl1 = hul * unl + pl * nx;
    let fr1 = hur * unr + pr * nx;
    let fl2 = hvl * unl + pl * ny;
    let fr2 = hvr * unr + pr * ny;

    // Rusanov: central + dissipation ∝ λ. The mass dissipation acts on
    // the *free surface* difference η = h + b, not on h itself —
    // otherwise a lake at rest over varying bathymetry pumps mass
    // (the standard hydrostatic LLF correction).
    let deta = (wr[0] + wr[3]) - (wl[0] + wl[3]);
    eflux[0] = ((fl0 + fr0) * R::HALF - lambda * R::HALF * deta) * len;
    eflux[1] = ((fl1 + fr1) * R::HALF - lambda * R::HALF * (wr[1] - wl[1])) * len;
    eflux[2] = ((fl2 + fr2) * R::HALF - lambda * R::HALF * (wr[2] - wl[2])) * len;
    eflux[3] = lambda * len;
}

/// `numerical_flux`: CFL timestep candidate of one edge, min-reduced into
/// `dt_min` (gather the two cell areas, read the wave speed λ·len from
/// slot 3 of the edge flux).
#[inline(always)]
pub fn numerical_flux<R: Real, T: Lane<R>>(
    lam_len: T,
    area_l: T,
    area_r: T,
    dt_min: &mut T,
    cfl: R,
) {
    let lam_len = lam_len.max(T::splat(R::from_f64(1e-12)));
    let dt = area_l.min(area_r) * cfl / lam_len;
    *dt_min = dt_min.min(dt);
}

/// `space_disc`: accumulate the edge flux and the centered bed-slope
/// source into both cell residuals (gather, colored scatter). Residual
/// convention: `dW/dt = −res/A`, so outflow adds to the first (right)
/// cell and subtracts from the second. Slot 3 (bathymetry) is left
/// alone.
#[inline(always)]
pub fn space_disc<R: Real, T: Lane<R>>(
    geom: &[T; 4],
    eflux: &[T; 4],
    wl: &[T; 4],
    wr: &[T; 4],
    res_l: &mut [T; 4],
    res_r: &mut [T; 4],
    g: R,
) {
    let (nx, ny, len) = (geom[0], geom[1], geom[2]);
    // Green-Gauss bed-slope source: res_hu += g·h_cell·b_face·n·len
    let b_face = (wl[3] + wr[3]) * R::HALF;
    let sl = wl[0] * g * b_face * len;
    let sr = wr[0] * g * b_face * len;
    // one update per component: applied in place (`step_seq`) or staged
    // in zeroed increments (the recording), the residual gets the same
    // bits
    res_l[0] += eflux[0];
    res_r[0] -= eflux[0];
    res_l[1] += eflux[1] + sl * nx;
    res_r[1] -= eflux[1] + sr * nx;
    res_l[2] += eflux[2] + sl * ny;
    res_r[2] -= eflux[2] + sr * ny;
}

/// `bc_flux`: reflective-wall boundary flux. A wall face carries no mass
/// or convective flux, only the cell's own pressure plus its share of the
/// bed-slope source — exactly the terms that close the face loop of a
/// boundary cell (without this, a lake at rest develops boundary
/// currents). `x1`,`x2` are the boundary edge's nodes, cell on the right.
/// `bgeom = (nx·len, ny·len)` — the outward normal of the cell scaled by
/// the edge length, precomputed at setup like `egeom`. Scalar only: the
/// boundary loop is serial in every row.
#[inline(always)]
pub fn bc_flux<R: Real>(bgeom: &[R; 2], w: &[R; 4], res: &mut [R; 4], g: R) {
    let h = w[0];
    let p = R::HALF * g * h * h;
    let s = p + g * h * w[3]; // pressure + bed-source share (b_f = b_cell)
    res[1] += s * bgeom[0];
    res[2] += s * bgeom[1];
}

/// `RK_1`: Heun predictor `w1 = w_old − (dt/A)·res`, residual zeroed.
#[inline(always)]
pub fn rk_1<R: Real, T: Lane<R>>(
    w_old: &[T; 4],
    res: &mut [T; 4],
    w1: &mut [T; 4],
    area: T,
    dt: R,
) {
    let f = T::splat(dt) / area;
    for n in 0..4 {
        w1[n] = w_old[n] - f * res[n];
        res[n] = T::splat(R::ZERO);
    }
}

/// `RK_2`: Heun corrector `w = ½(w_old + w1 − (dt/A)·res)`, residual
/// zeroed.
#[inline(always)]
pub fn rk_2<R: Real, T: Lane<R>>(
    w_old: &[T; 4],
    w1: &[T; 4],
    res: &mut [T; 4],
    w: &mut [T; 4],
    area: T,
    dt: R,
) {
    let f = T::splat(dt) / area;
    for n in 0..4 {
        w[n] = (w_old[n] + w1[n] - f * res[n]) * R::HALF;
        res[n] = T::splat(R::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: f64 = super::super::GRAVITY;

    #[test]
    fn sim_1_copies() {
        let w = [2.0, 0.1, -0.2, -3.0];
        let mut w_old = [0.0; 4];
        sim_1(&w, &mut w_old);
        assert_eq!(w_old, w);
    }

    #[test]
    fn flux_vanishes_for_identical_still_states() {
        let geom = [1.0, 0.0, 0.5, 0.0];
        let w = [2.0, 0.0, 0.0, -2.0];
        let mut f = [0.0f64; 4];
        compute_flux(&geom, &w, &w, &mut f, G, 1e-6);
        assert_eq!(f[0], 0.0, "no mass flux at rest");
        assert!(f[1] > 0.0, "pressure flux present in normal direction");
        assert_eq!(f[2], 0.0);
        assert!(f[3] > 0.0, "wave speed positive");
        // λ = sqrt(g h) · len
        assert!((f[3] - (G * 2.0f64).sqrt() * 0.5).abs() < 1e-12);
    }

    #[test]
    fn flux_is_antisymmetric_in_orientation() {
        // flipping the normal and swapping the states must negate the
        // mass flux (conservation across the edge)
        let geom_p = [0.6, 0.8, 1.0, 0.0];
        let geom_m = [-0.6, -0.8, 1.0, 0.0];
        let wl = [2.0, 0.3, -0.1, -2.0];
        let wr = [1.5, -0.2, 0.4, -1.5];
        let mut fp = [0.0f64; 4];
        let mut fm = [0.0f64; 4];
        compute_flux(&geom_p, &wl, &wr, &mut fp, G, 1e-6);
        compute_flux(&geom_m, &wr, &wl, &mut fm, G, 1e-6);
        for n in 0..3 {
            assert!((fp[n] + fm[n]).abs() < 1e-12, "component {n}");
        }
        assert!((fp[3] - fm[3]).abs() < 1e-12, "wave speed is symmetric");
    }

    #[test]
    fn dt_scales_with_cell_size_and_wave_speed() {
        let mut dt = f64::INFINITY;
        numerical_flux(10.0, 4.0, 9.0, &mut dt, 0.4);
        assert!((dt - 0.4 * 4.0 / 10.0).abs() < 1e-12);
        // a slower edge cannot raise the minimum
        numerical_flux(1.0, 4.0, 9.0, &mut dt, 0.4);
        assert!((dt - 0.16).abs() < 1e-12);
    }

    #[test]
    fn space_disc_conserves_mass_exactly() {
        let geom = [0.6, 0.8, 1.3, 0.0];
        let eflux = [1.7, -0.4, 0.9, 3.0];
        let wl = [2.0, 0.0, 0.0, -2.0];
        let wr = [1.0, 0.1, 0.0, -1.0];
        let mut rl = [0.0f64; 4];
        let mut rr = [0.0f64; 4];
        space_disc(&geom, &eflux, &wl, &wr, &mut rl, &mut rr, G);
        assert!((rl[0] + rr[0]).abs() < 1e-12, "mass antisymmetric");
        assert_eq!(rl[3], 0.0, "slot 3 untouched");
        assert_eq!(rr[3], 0.0);
    }

    #[test]
    fn rk_stages_advance_and_zero_residual() {
        let w_old = [2.0f64, 0.0, 0.0, -2.0];
        let mut res = [0.4, 0.8, -0.4, 0.0];
        let mut w1 = [0.0; 4];
        rk_1(&w_old, &mut res, &mut w1, 2.0, 0.5);
        assert_eq!(w1[0], 2.0 - 0.25 * 0.4);
        assert_eq!(res, [0.0; 4]);
        assert_eq!(w1[3], -2.0, "bed elevation unchanged");

        let mut res2 = [0.2, 0.0, 0.0, 0.0];
        let mut w = [0.0; 4];
        rk_2(&w_old, &w1, &mut res2, &mut w, 2.0, 0.5);
        assert!((w[0] - 0.5 * (2.0 + w1[0] - 0.25 * 0.2)).abs() < 1e-15);
        assert_eq!(w[3], -2.0);
        assert_eq!(res2, [0.0; 4]);
    }
}
