//! Candidate enumeration from registry capability flags.

use ump_core::Backend;

/// One point of the tuning search space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// A registered backend (never an invented one).
    pub backend: Backend,
    /// Mini-partition block size handed to the dispatcher.
    pub block_size: usize,
}

/// Block sizes tried for shapes where blocking matters (pooled and
/// fused paths re-block work per team member; the paper's Fig. 7 sweep
/// flattens out in this range).
const BLOCKED: [usize; 2] = [256, 1024];
/// Single block size for shapes that ignore blocking (sequential and
/// whole-set SIMD paths).
const UNBLOCKED: [usize; 1] = [1024];

/// Cross the full registry with per-shape block sizes. Every candidate
/// is derived from `Backend::all()` and its capability flags — nothing
/// here can produce an unregistered shape.
pub fn enumerate() -> Vec<Candidate> {
    let mut out = Vec::new();
    for backend in Backend::all() {
        let blocks: &[usize] = if backend.needs_pool() || backend.is_fused() {
            &BLOCKED
        } else {
            &UNBLOCKED
        };
        for &block_size in blocks {
            out.push(Candidate {
                backend,
                block_size,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_whole_registry() {
        let cands = enumerate();
        for b in Backend::all() {
            assert!(
                cands.iter().any(|c| c.backend == b),
                "no candidate for {}",
                b.name()
            );
        }
        // pooled shapes get the block sweep
        assert!(
            cands
                .iter()
                .filter(|c| c.backend == Backend::Threaded)
                .count()
                == BLOCKED.len()
        );
        for c in &cands {
            assert!(c.block_size >= 1);
            assert!(Backend::all().contains(&c.backend));
        }
    }
}
