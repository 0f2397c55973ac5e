//! The declarative loop layer and the fusion dependency analysis.
//!
//! A [`LoopDesc`] is everything the runtime knows about a recorded loop
//! *as data*: the iteration set it runs over and the access descriptors
//! of its arguments (reusing [`LoopProfile`], the same structure the
//! paper's Table II/III rows are derived from). [`fuse_groups`] walks a
//! recorded chain and greedily extends each fused group while the next
//! loop is compatible with **every** member — the legality rules are
//! documented at the crate root and implemented in [`conflict`].

use std::ops::Range;

use ump_core::{Access, Indirection, LoopProfile};

/// The declarative description of one recorded loop: set identity plus
/// per-argument access descriptors.
#[derive(Clone, Debug)]
pub struct LoopDesc {
    /// The loop's `op_par_loop` signature: kernel name, set name, and
    /// per-argument `(dat, map-or-direct, access)` descriptors.
    pub profile: LoopProfile,
    /// Iteration-set size (the set *identity* together with
    /// `profile.set`).
    pub n_elems: usize,
}

impl LoopDesc {
    /// Describe a loop of `n_elems` iterations with `profile`'s
    /// signature.
    pub fn new(profile: LoopProfile, n_elems: usize) -> LoopDesc {
        LoopDesc { profile, n_elems }
    }

    /// Kernel name (diagnostics, instrumentation keys).
    pub fn name(&self) -> &str {
        &self.profile.name
    }
}

/// Why `second` cannot join a fused group containing `first` (`None` =
/// compatible). Implements the legality rules from the crate docs:
/// same-set, no indirect dependency, no global reuse.
pub fn conflict(first: &LoopDesc, second: &LoopDesc) -> Option<String> {
    if first.profile.set != second.profile.set || first.n_elems != second.n_elems {
        return Some(format!(
            "different iteration sets: {}[{}] vs {}[{}]",
            first.profile.set, first.n_elems, second.profile.set, second.n_elems
        ));
    }
    for a in &first.profile.args {
        for b in &second.profile.args {
            if a.dat != b.dat {
                continue;
            }
            // read-after-read never conflicts, direct or not
            if !(a.access.writes() || b.access.writes()) {
                continue;
            }
            let a_global = a.ind == Indirection::Global;
            let b_global = b.ind == Indirection::Global;
            if a_global || b_global {
                return Some(format!(
                    "global '{}' written by {} must complete before {} reuses it",
                    a.dat, first.profile.name, second.profile.name
                ));
            }
            if a.is_indirect() || b.is_indirect() {
                return Some(format!(
                    "indirect dependency on '{}' between {} and {}",
                    a.dat, first.profile.name, second.profile.name
                ));
            }
            // both direct with a write: element-private, fusable
        }
    }
    None
}

/// Why `second` needs a *global synchronization point* after `first`
/// when the two loops share a cross-timestep tiled epoch (`None` = they
/// may share one). This is the epoch-cut rule of the tiling scheduler
/// ([`epoch_ranges`](crate::tile::epoch_ranges)):
/// tiles execute an epoch independently, so a globally-reduced value can
/// only be *consumed* after every tile's partial has been merged at an
/// epoch barrier.
///
/// The rule is weaker than [`conflict`]'s global clause (which splits
/// fused *groups* but keeps the loops in the same per-step chain): two
/// `Inc` accumulations of the same global commute into per-tile
/// partials, and read-read reuse is free. Everything else —
/// read-after-reduce (Volna's `RK_1` consuming the Δt that
/// `numerical_flux` reduced) and reduce-after-read (the next step's
/// `numerical_flux` restarting the reduction `RK` loops just read) —
/// demands the barrier.
pub fn global_barrier(first: &LoopDesc, second: &LoopDesc) -> Option<String> {
    for a in &first.profile.args {
        if a.ind != Indirection::Global {
            continue;
        }
        for b in &second.profile.args {
            if b.ind != Indirection::Global || a.dat != b.dat {
                continue;
            }
            let both_inc = a.access == Access::Inc && b.access == Access::Inc;
            let neither_writes = !a.access.writes() && !b.access.writes();
            if !(both_inc || neither_writes) {
                return Some(format!(
                    "global '{}': {} ({:?}) then {} ({:?}) needs an epoch barrier",
                    a.dat, first.profile.name, a.access, second.profile.name, b.access
                ));
            }
        }
    }
    None
}

/// One group of a partitioned chain: the member loops (indices into the
/// recorded order) and whether they run as a pooled colored dispatch or
/// serially on the dispatcher.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSpec {
    /// Indices of the member loops (contiguous in recorded order).
    pub loops: Range<usize>,
    /// `true`: the member runs serially on the dispatching thread (a
    /// [`record_serial`](crate::chain::Chain::record_serial) or
    /// [`record_seq`](crate::chain::Chain::record_seq) loop, never
    /// fused). `false`: one colored dispatch for the whole group.
    pub seq: bool,
}

/// Partition a recorded chain into maximal fusable groups, preserving
/// recorded order. `entries` pairs each loop's descriptor with its
/// run-serially flag; serial loops always form singleton groups.
pub fn fuse_groups(entries: &[(&LoopDesc, bool)]) -> Vec<GroupSpec> {
    let mut groups: Vec<GroupSpec> = Vec::new();
    let mut open: Option<Range<usize>> = None;
    for (i, (desc, seq)) in entries.iter().enumerate() {
        if *seq {
            if let Some(r) = open.take() {
                groups.push(GroupSpec {
                    loops: r,
                    seq: false,
                });
            }
            groups.push(GroupSpec {
                loops: i..i + 1,
                seq: true,
            });
            continue;
        }
        match open.take() {
            None => open = Some(i..i + 1),
            Some(r) => {
                let compatible = entries[r.clone()]
                    .iter()
                    .all(|(member, _)| conflict(member, desc).is_none());
                if compatible {
                    open = Some(r.start..i + 1);
                } else {
                    groups.push(GroupSpec {
                        loops: r,
                        seq: false,
                    });
                    open = Some(i..i + 1);
                }
            }
        }
    }
    if let Some(r) = open {
        groups.push(GroupSpec {
            loops: r,
            seq: false,
        });
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_core::{Access, ArgInfo};

    fn desc(name: &str, set: &str, n: usize, args: Vec<ArgInfo>) -> LoopDesc {
        LoopDesc::new(
            LoopProfile {
                name: name.into(),
                set: set.into(),
                args,
                flops_per_elem: 1.0,
                transcendentals_per_elem: 0.0,
                description: String::new(),
            },
            n,
        )
    }

    fn groups_of(descs: &[LoopDesc]) -> Vec<GroupSpec> {
        let entries: Vec<(&LoopDesc, bool)> = descs.iter().map(|d| (d, false)).collect();
        fuse_groups(&entries)
    }

    #[test]
    fn direct_only_chains_always_fuse() {
        // write → read → rw → write over the same dats, all direct
        let chain = [
            desc(
                "a",
                "cells",
                100,
                vec![
                    ArgInfo::direct("u", 4, Access::Read),
                    ArgInfo::direct("v", 4, Access::Write),
                ],
            ),
            desc("b", "cells", 100, vec![ArgInfo::direct("v", 4, Access::Rw)]),
            desc(
                "c",
                "cells",
                100,
                vec![
                    ArgInfo::direct("v", 4, Access::Read),
                    ArgInfo::direct("u", 4, Access::Write),
                ],
            ),
        ];
        let g = groups_of(&chain);
        assert_eq!(
            g,
            vec![GroupSpec {
                loops: 0..3,
                seq: false
            }]
        );
    }

    #[test]
    fn indirect_raw_splits_the_chain() {
        // an indirect increment followed by an indirect read of the same
        // dat through the shared map: the canonical illegal fusion
        let chain = [
            desc(
                "scatter",
                "edges",
                50,
                vec![
                    ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 0),
                    ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 1),
                ],
            ),
            desc(
                "gather",
                "edges",
                50,
                vec![
                    ArgInfo::indirect("acc", 1, Access::Read, "edge2cell", 0),
                    ArgInfo::direct("out", 1, Access::Write),
                ],
            ),
        ];
        let g = groups_of(&chain);
        assert_eq!(g.len(), 2, "indirect RAW must split: {g:?}");
        let why = conflict(&chain[0], &chain[1]).unwrap();
        assert!(why.contains("indirect"), "{why}");
    }

    #[test]
    fn indirect_war_and_waw_split_too() {
        let read_ind = desc(
            "r",
            "edges",
            50,
            vec![
                ArgInfo::indirect("acc", 1, Access::Read, "edge2cell", 0),
                ArgInfo::direct("out", 1, Access::Write),
            ],
        );
        let inc_ind = desc(
            "w",
            "edges",
            50,
            vec![ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 0)],
        );
        // WAR: indirect read then indirect increment
        assert!(conflict(&read_ind, &inc_ind).is_some());
        // WAW: two indirect increments of the same dat
        assert!(conflict(&inc_ind, &inc_ind).is_some());
    }

    #[test]
    fn direct_write_with_unrelated_indirect_reads_fuses() {
        // Airfoil's save_soln + adt_calc shape: the indirect arg (x) is
        // read-only everywhere, the shared dat (q) is read-read
        let save = desc(
            "save",
            "cells",
            100,
            vec![
                ArgInfo::direct("q", 4, Access::Read),
                ArgInfo::direct("qold", 4, Access::Write),
            ],
        );
        let adt = desc(
            "adt",
            "cells",
            100,
            vec![
                ArgInfo::indirect("x", 2, Access::Read, "cell2node", 0),
                ArgInfo::direct("q", 4, Access::Read),
                ArgInfo::direct("adt", 1, Access::Write),
            ],
        );
        assert_eq!(conflict(&save, &adt), None);
    }

    #[test]
    fn global_reduction_reuse_splits() {
        let reduce = desc(
            "nf",
            "edges",
            50,
            vec![
                ArgInfo::direct("flux", 4, Access::Read),
                ArgInfo::global("dt", 1, Access::Inc),
            ],
        );
        let consume = desc(
            "rk",
            "edges",
            50,
            vec![
                ArgInfo::direct("flux", 4, Access::Read),
                ArgInfo::global("dt", 1, Access::Read),
            ],
        );
        assert!(conflict(&reduce, &consume).is_some());
        // but two loops only *reading* the same global fuse fine
        assert_eq!(conflict(&consume, &consume), None);
    }

    #[test]
    fn global_barrier_is_weaker_than_conflict() {
        let args = |acc: Access| {
            vec![
                ArgInfo::direct("flux", 4, Access::Read),
                ArgInfo::global("dt", 1, acc),
            ]
        };
        let inc = desc("nf", "edges", 50, args(Access::Inc));
        let read = desc("rk", "edges", 50, args(Access::Read));
        // commuting Inc-Inc and read-read reuse need no epoch barrier,
        // even though conflict() refuses to fuse the Inc-Inc pair
        assert_eq!(global_barrier(&inc, &inc), None);
        assert!(conflict(&inc, &inc).is_some());
        assert_eq!(global_barrier(&read, &read), None);
        // read-after-reduce and reduce-after-read both cut
        assert!(global_barrier(&inc, &read).is_some());
        assert!(global_barrier(&read, &inc).is_some());
        // different globals never interact
        let other = desc(
            "other",
            "edges",
            50,
            vec![ArgInfo::global("rms", 1, Access::Read)],
        );
        assert_eq!(global_barrier(&inc, &other), None);
    }

    #[test]
    fn different_sets_split_and_seq_loops_are_singletons() {
        let a = desc("a", "cells", 100, vec![]);
        let b = desc("b", "edges", 150, vec![]);
        let c = desc("c", "cells", 100, vec![]);
        let entries = [(&a, false), (&b, true), (&c, false)];
        let g = fuse_groups(&entries);
        assert_eq!(g.len(), 3);
        assert!(g[1].seq);
        // same set name but different size is a different set
        let c_small = desc("c", "cells", 99, vec![]);
        assert!(conflict(&a, &c_small).is_some());
        assert_eq!(conflict(&a, &c), None);
    }
}
