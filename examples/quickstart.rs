//! Quickstart: declare a mesh, build a race-free plan, run a parallel
//! loop through three backends, and check they agree — the OP2 workflow
//! of paper §3 in fifty lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ump::color::{PlanInputs, TwoLevelPlan};
use ump::core::{DatRef, ExecPool};
use ump::mesh::generators::quad_channel;
use ump::simd::{split_sweep, F64x4, IdxVec, VecR};

fn main() {
    // 1. sets + mappings: a 64x32 quad mesh (cells, edges, nodes and the
    //    edge->cell connectivity come out of the generator)
    let mesh = quad_channel(64, 32).mesh;
    println!(
        "mesh: {} cells, {} edges, {} nodes",
        mesh.n_cells(),
        mesh.n_edges(),
        mesh.n_nodes()
    );

    // a toy "flux" loop over edges incrementing both neighbor cells —
    // the access pattern that makes unstructured loops race
    let edge_weight: Vec<f64> = (0..mesh.n_edges()).map(|e| (e % 7) as f64 * 0.25).collect();

    // 2. sequential reference
    let mut reference = vec![0.0f64; mesh.n_cells()];
    for e in 0..mesh.n_edges() {
        let c = mesh.edge2cell.row(e);
        reference[c[0] as usize] += edge_weight[e];
        reference[c[1] as usize] -= edge_weight[e];
    }

    // 3. threaded backend: two-level coloring makes blocks race-free
    let inputs = PlanInputs::new(mesh.n_edges(), vec![&mesh.edge2cell], 64);
    let plan = TwoLevelPlan::build(&inputs);
    println!(
        "plan: {} blocks in {} colors, ≤{} element colors per block",
        plan.blocks.len(),
        plan.block_colors.n_colors,
        plan.max_elem_colors()
    );
    // the persistent worker team: spawned once, reused by every color
    // round
    let pool = ExecPool::new(0);
    let mut threaded = vec![0.0f64; mesh.n_cells()];
    {
        // SAFETY: blocks that add to a common cell get different colors
        let shared = unsafe { DatRef::flat_mut(&mut threaded) };
        pool.colored_blocks(&plan, 0, |_b, range| {
            for e in range.start as usize..range.end as usize {
                let c = mesh.edge2cell.row(e);
                shared.add_row(c[0] as usize, &[edge_weight[e]]);
                shared.add_row(c[1] as usize, &[-edge_weight[e]]);
            }
        });
    }

    // 4. explicit SIMD backend: gather weights, serialized scatter
    //    (paper Fig. 3b's structure: pre-sweep, vector body, post-sweep)
    let mut simd = vec![0.0f64; mesh.n_cells()];
    let sweep = split_sweep(0..mesh.n_edges(), F64x4::LANES, 0);
    for e in sweep.scalar_items() {
        let c = mesh.edge2cell.row(e);
        simd[c[0] as usize] += edge_weight[e];
        simd[c[1] as usize] -= edge_weight[e];
    }
    for es in sweep.vector_chunks() {
        let c0 = IdxVec::<4>::load_strided(&mesh.edge2cell.data, es * 2, 2);
        let c1 = IdxVec::<4>::load_strided(&mesh.edge2cell.data, es * 2 + 1, 2);
        let w = F64x4::load(&edge_weight, es);
        w.scatter_add_serial(&mut simd, c0, 1, 0);
        (-w).scatter_add_serial(&mut simd, c1, 1, 0);
    }

    // 5. all three agree
    let max_diff = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    };
    println!(
        "threaded vs sequential: max |Δ| = {:e}",
        max_diff(&threaded, &reference)
    );
    println!(
        "simd     vs sequential: max |Δ| = {:e}",
        max_diff(&simd, &reference)
    );
    assert!(max_diff(&threaded, &reference) == 0.0);
    assert!(max_diff(&simd, &reference) == 0.0);
    println!("all backends agree ✓");

    // bonus: the same arithmetic on vectors (wrapper-class style)
    let a = VecR::<f64, 4>::from_array([1.0, 2.0, 3.0, 4.0]);
    println!("(a*a + a).sqrt() = {:?}", (a * a + a).sqrt().to_array());
}
