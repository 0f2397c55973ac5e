//! Vectors of mapping indices.
//!
//! Unstructured-mesh indirection is driven by `op_map` tables of `i32`
//! element indices (paper Fig. 2/3: `map0idx = arg0.map_data[...]`). The
//! vectorized loop loads `L` consecutive map entries into an [`IdxVec`]
//! (the paper's `I32vec4`/`I32vec8`) and uses it to gather and scatter
//! lane data.

use crate::Mask;

/// An `L`-lane vector of `i32` mapping indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdxVec<const L: usize>(pub(crate) [i32; L]);

impl<const L: usize> IdxVec<L> {
    /// All lanes equal to `v`.
    #[inline(always)]
    pub fn splat(v: i32) -> Self {
        IdxVec([v; L])
    }

    /// Load `L` consecutive indices from `table[start..start+L]`.
    ///
    /// This is the vector load of the map column in the paper's generated
    /// code: `intv map0idx = intv(&arg0.map[n + set_size*0])`.
    #[inline(always)]
    pub fn load(table: &[i32], start: usize) -> Self {
        let mut out = [0i32; L];
        out.copy_from_slice(&table[start..start + L]);
        IdxVec(out)
    }

    /// Load `L` indices with a stride: `table[start + k*stride]`.
    ///
    /// Used when map tables are stored row-major (`map[n*dim + j]`, AoS)
    /// rather than column-major (`map[n + set_size*j]`, SoA).
    #[inline(always)]
    pub fn load_strided(table: &[i32], start: usize, stride: usize) -> Self {
        let mut out = [0i32; L];
        for k in 0..L {
            out[k] = table[start + k * stride];
        }
        IdxVec(out)
    }

    /// Sequential indices `base, base+1, …, base+L-1` — the implicit
    /// identity map of a *direct* argument.
    #[inline(always)]
    pub fn iota(base: i32) -> Self {
        let mut out = [0i32; L];
        for (k, o) in out.iter_mut().enumerate() {
            *o = base + k as i32;
        }
        IdxVec(out)
    }

    /// Construct from an explicit lane array.
    #[inline(always)]
    pub fn from_array(a: [i32; L]) -> Self {
        IdxVec(a)
    }

    /// The lane array.
    #[inline(always)]
    pub fn to_array(self) -> [i32; L] {
        self.0
    }

    /// Value of lane `k`.
    #[inline(always)]
    pub fn lane(self, k: usize) -> i32 {
        self.0[k]
    }

    /// Lane-wise `self * s + o` — index arithmetic for `idx*dim + comp`
    /// addressing without leaving the vector domain.
    #[inline(always)]
    pub fn scale_offset(self, s: i32, o: i32) -> Self {
        let mut out = [0i32; L];
        for k in 0..L {
            out[k] = self.0[k] * s + o;
        }
        IdxVec(out)
    }

    /// Lane-wise equality mask against another index vector.
    #[inline(always)]
    pub fn eq_mask(self, other: Self) -> Mask<L> {
        let mut out = [false; L];
        for k in 0..L {
            out[k] = self.0[k] == other.0[k];
        }
        Mask::from_array(out)
    }

    /// `Some(base)` when the lanes are the consecutive run
    /// `base..base+L`, where a map-driven gather degenerates to a
    /// contiguous vector load (and an accumulating scatter to a
    /// load-add-store: consecutive lanes are necessarily distinct, so no
    /// collisions). Rare on the applications' cell-major edge order,
    /// whose neighbouring edges share a cell rather than step through
    /// consecutive ones.
    #[inline(always)]
    pub fn consecutive_base(self) -> Option<i32> {
        let b = self.0[0];
        for k in 1..L {
            if self.0[k] != b + k as i32 {
                return None;
            }
        }
        Some(b)
    }

    /// `true` when every lane is distinct — the precondition under which a
    /// vector scatter is race-free. The full/block-permute coloring schemes
    /// (paper §4) exist precisely to establish this property within a
    /// color group.
    pub fn all_distinct(self) -> bool {
        for i in 0..L {
            for j in (i + 1)..L {
                if self.0[i] == self.0[j] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_lanes() {
        let table: Vec<i32> = (0..32).map(|i| i * 3).collect();
        let v = IdxVec::<4>::load(&table, 5);
        assert_eq!(v.to_array(), [15, 18, 21, 24]);
        assert_eq!(v.lane(2), 21);
    }

    #[test]
    fn strided_load_matches_aos_map_layout() {
        // map stored as [e0n0, e0n1, e1n0, e1n1, ...] (dim=2, AoS):
        let table = [10, 11, 20, 21, 30, 31, 40, 41];
        // lane-load of "node 1 of edges 0..4":
        let v = IdxVec::<4>::load_strided(&table, 1, 2);
        assert_eq!(v.to_array(), [11, 21, 31, 41]);
    }

    #[test]
    fn iota_and_scale_offset() {
        let v = IdxVec::<4>::iota(7);
        assert_eq!(v.to_array(), [7, 8, 9, 10]);
        assert_eq!(v.scale_offset(4, 2).to_array(), [30, 34, 38, 42]);
    }

    #[test]
    fn distinctness_detection() {
        assert!(IdxVec::<4>::from_array([0, 5, 2, 9]).all_distinct());
        assert!(!IdxVec::<4>::from_array([0, 5, 2, 5]).all_distinct());
        assert!(IdxVec::<1>::splat(3).all_distinct());
    }

    #[test]
    fn eq_mask_lanes() {
        let a = IdxVec::<4>::from_array([1, 2, 3, 4]);
        let b = IdxVec::<4>::from_array([1, 0, 3, 0]);
        assert_eq!(a.eq_mask(b).to_array(), [true, false, true, false]);
    }
}
