//! Integration: the RCM renumbering pipeline (OP2 renumbers meshes
//! before planning) must preserve the physics exactly — the solution is
//! a permutation of the reference — and must improve the locality
//! statistics the block-based plans depend on. The apps' constructors
//! put edges in the canonical cell-major order, so their results do not
//! depend on the order a case's edges arrive in.

use ump::apps::airfoil::{drivers, Airfoil};
use ump::apps::volna::Volna;
use ump::apps::Simulation;
use ump::color::{PlanInputs, PlanStats, TwoLevelPlan};
use ump::mesh::generators::{quad_channel, tri_coastal};
use ump::mesh::renumber::{rcm_renumber_mesh, renumber_cells, renumber_nodes, reorder_edges};
use ump::mesh::SplitMix64;
use ump::simd::Real;

/// Scramble all element numberings of a mesh (what a badly-ordered input
/// file looks like), returning the cell permutation used.
fn scramble(mesh: &mut ump::mesh::Mesh2d, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut node_perm: Vec<u32> = (0..mesh.n_nodes() as u32).collect();
    rng.shuffle(&mut node_perm);
    renumber_nodes(mesh, &node_perm);
    let mut cell_perm: Vec<u32> = (0..mesh.n_cells() as u32).collect();
    rng.shuffle(&mut cell_perm);
    renumber_cells(mesh, &cell_perm);
    let mut edge_order: Vec<u32> = (0..mesh.n_edges() as u32).collect();
    rng.shuffle(&mut edge_order);
    reorder_edges(mesh, &edge_order);
    mesh.validate().unwrap();
    cell_perm
}

#[test]
fn rcm_restores_plan_locality_on_scrambled_meshes() {
    let reference = quad_channel(48, 32).mesh;
    let mut scrambled = reference.clone();
    scramble(&mut scrambled, 7);

    let reuse = |mesh: &ump::mesh::Mesh2d| -> f64 {
        let inputs = PlanInputs::new(mesh.n_edges(), vec![&mesh.edge2cell], 256);
        let plan = TwoLevelPlan::build(&inputs);
        PlanStats::of_two_level(&plan, &[&mesh.edge2cell], 4).reuse_factor
    };

    let good = reuse(&reference);
    let bad = reuse(&scrambled);
    assert!(
        bad < good - 0.2,
        "scrambling should hurt block reuse: {good} -> {bad}"
    );

    let mut restored = scrambled.clone();
    let (bw_before, bw_after) = rcm_renumber_mesh(&mut restored);
    assert!(bw_after < bw_before, "RCM should reduce bandwidth");
    restored.validate().unwrap();
    let fixed = reuse(&restored);
    assert!(
        fixed > bad + 0.5 * (good - bad),
        "RCM should recover most reuse: good {good}, scrambled {bad}, rcm {fixed}"
    );
}

#[test]
fn physics_is_invariant_under_renumbering() {
    // run the solver on the reference and on a scrambled copy of the
    // same geometry; the cell permutation must map one solution onto
    // the other exactly (identical arithmetic, different order is
    // absorbed by per-edge/per-cell locality of the kernels — only the
    // rms reduction order changes, hence the tiny tolerance there)
    let case_ref = quad_channel(20, 14);
    let mut case_scr = case_ref.clone();
    let cell_perm = scramble(&mut case_scr.mesh, 42);
    // boundary tags travel with the bedges; recompute them the same way
    // the generator does (direction-based, so geometry decides)
    case_scr.bound = (0..case_scr.mesh.n_bedges())
        .map(|be| {
            let n = case_scr.mesh.bedge2node.row(be);
            let a = case_scr.mesh.node_xy[n[0] as usize];
            let b = case_scr.mesh.node_xy[n[1] as usize];
            if (a[0] - b[0]).abs() > (a[1] - b[1]).abs() {
                ump::mesh::generators::BOUND_WALL
            } else {
                ump::mesh::generators::BOUND_FARFIELD
            }
        })
        .collect();
    // also scramble the reference's bound? no — reference untouched.

    let mut sim_ref = Airfoil::<f64>::from_case(case_ref.clone());
    let mut sim_scr = Airfoil::<f64>::from_case(case_scr);
    let mut last = (0.0, 0.0);
    for _ in 0..5 {
        last = (
            drivers::step_seq(&mut sim_ref, None),
            drivers::step_seq(&mut sim_scr, None),
        );
    }
    // rms: same summands, different order
    assert!(
        (last.0 - last.1).abs() < 1e-12 * (1.0 + last.0),
        "rms diverged: {} vs {}",
        last.0,
        last.1
    );
    // state: scrambled cell c holds the value of reference cell
    // cell_perm^{-1}? — cell_perm maps old (reference) -> new (scrambled)
    for (old, &new) in cell_perm.iter().enumerate() {
        for d in 0..4 {
            let a = sim_ref.q.row(old)[d];
            let b = sim_scr.q.row(new as usize)[d];
            assert!(
                (a - b).abs() < 1e-12 * (1.0 + a.abs()),
                "cell {old}->{new} dim {d}: {a} vs {b}"
            );
        }
    }
}

/// Shuffle a mesh's edge order (nothing else) by `seed`.
fn shuffle_edges(mesh: &mut ump::mesh::Mesh2d, seed: u64) {
    let mut order: Vec<u32> = (0..mesh.n_edges() as u32).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    reorder_edges(mesh, &order);
}

/// Bits of three `step_seq` results and of every evolving dat after them.
fn seq_fingerprint<S: Simulation>(mut sim: S) -> Vec<u64> {
    let mut bits: Vec<u64> = (0..3).map(|_| sim.step_seq(None).to_bits()).collect();
    for dat in sim.evolving() {
        bits.extend(dat.data.iter().map(|v| v.to_f64().to_bits()));
    }
    bits
}

#[test]
fn from_case_is_bit_identical_under_edge_shuffles() {
    let airfoil = quad_channel(20, 14);
    let mut shuffled = airfoil.clone();
    shuffle_edges(&mut shuffled.mesh, 5);
    assert_eq!(
        seq_fingerprint(Airfoil::<f64>::from_case(airfoil)),
        seq_fingerprint(Airfoil::<f64>::from_case(shuffled))
    );

    // Volna evolves an edge dat (`eflux`) too: it must land identically
    let coastal = tri_coastal(18, 12);
    let mut shuffled = coastal.clone();
    shuffle_edges(&mut shuffled.mesh, 6);
    assert_eq!(
        seq_fingerprint(Volna::<f64>::from_case(coastal)),
        seq_fingerprint(Volna::<f64>::from_case(shuffled))
    );
}
