//! Set-to-set mapping tables (OP2's `op_map`).
//!
//! A [`MapTable`] is the connectivity building block of the abstraction:
//! "connectivity from one set to another, with a given arity, e.g. each
//! edge connects to two vertices" (paper §3). Storage is row-major
//! (`data[e*dim + j]` = the `j`-th target of element `e`), matching the
//! AoS layout the CPU backends use; the SIMT/GPU backend transposes on
//! the fly.

use crate::Csr;

/// A fixed-arity mapping between two sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapTable {
    /// Human-readable name (`"edge2node"`, …) used in diagnostics.
    pub name: String,
    /// Size of the *from* set (number of rows).
    pub from_size: usize,
    /// Size of the *to* set (bound on stored indices).
    pub to_size: usize,
    /// Arity: number of targets per element.
    pub dim: usize,
    /// Row-major index table, `from_size * dim` entries, each in
    /// `[0, to_size)`.
    pub data: Vec<i32>,
}

impl MapTable {
    /// Construct and validate a mapping.
    ///
    /// # Panics
    /// When `data.len() != from_size * dim` or an index is out of range.
    pub fn new(
        name: impl Into<String>,
        from_size: usize,
        to_size: usize,
        dim: usize,
        data: Vec<i32>,
    ) -> MapTable {
        let m = MapTable {
            name: name.into(),
            from_size,
            to_size,
            dim,
            data,
        };
        m.validate()
            .unwrap_or_else(|e| panic!("MapTable {}: {e}", m.name));
        m
    }

    /// Check structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.data.len() != self.from_size * self.dim {
            return Err(format!(
                "data length {} != from_size {} * dim {}",
                self.data.len(),
                self.from_size,
                self.dim
            ));
        }
        for (i, &v) in self.data.iter().enumerate() {
            if v < 0 || v as usize >= self.to_size {
                return Err(format!(
                    "entry {i} (element {}, slot {}) = {v} out of range [0,{})",
                    i / self.dim.max(1),
                    i % self.dim.max(1),
                    self.to_size
                ));
            }
        }
        Ok(())
    }

    /// The targets of element `e`.
    #[inline]
    pub fn row(&self, e: usize) -> &[i32] {
        &self.data[e * self.dim..(e + 1) * self.dim]
    }

    /// Single target lookup: `j`-th target of element `e`.
    #[inline]
    pub fn at(&self, e: usize, j: usize) -> usize {
        debug_assert!(j < self.dim);
        self.data[e * self.dim + j] as usize
    }

    /// Invert the mapping into CSR form over the *to* set: row `t` lists
    /// every `from` element that references `t`.
    ///
    /// This reverse map drives conflict-graph construction for coloring
    /// ("which edges write into the same cell") and halo construction for
    /// the message-passing backend ("which foreign edges touch my cells").
    pub fn invert(&self) -> Csr {
        let pairs = self
            .data
            .iter()
            .enumerate()
            .map(|(i, &t)| (t as u32, (i / self.dim) as i32));
        let mut csr = Csr::from_pairs(self.to_size, pairs);
        csr.sort_rows();
        csr.dedup_rows();
        csr
    }

    /// Renumber the *targets* through `perm` (`new_index = perm[old_index]`).
    pub fn permute_targets(&mut self, perm: &[u32]) {
        assert_eq!(perm.len(), self.to_size);
        for v in &mut self.data {
            *v = perm[*v as usize] as i32;
        }
    }

    /// Reorder the *rows* so that new element `i` is old element
    /// `order[i]`.
    pub fn reorder_rows(&mut self, order: &[u32]) {
        assert_eq!(order.len(), self.from_size);
        let mut out = Vec::with_capacity(self.data.len());
        for &old in order {
            out.extend_from_slice(self.row(old as usize));
        }
        self.data = out;
    }

    /// Bytes occupied by the index table (counted in the Table IV memory
    /// footprints; the paper's "useful bytes" metric excludes them).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge2node_square() -> MapTable {
        // 4 nodes in a square, 4 edges around it
        MapTable::new("edge2node", 4, 4, 2, vec![0, 1, 1, 2, 2, 3, 3, 0])
    }

    #[test]
    fn rows_and_lookup() {
        let m = edge2node_square();
        assert_eq!(m.row(1), &[1, 2]);
        assert_eq!(m.at(3, 1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_rejected() {
        MapTable::new("bad", 1, 2, 2, vec![0, 5]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn wrong_length_rejected() {
        MapTable::new("bad", 2, 2, 2, vec![0, 1, 1]);
    }

    #[test]
    fn inversion_lists_referencing_elements() {
        let m = edge2node_square();
        let inv = m.invert();
        assert_eq!(inv.rows(), 4);
        // node 0 is touched by edges 0 and 3
        assert_eq!(inv.row(0), &[0, 3]);
        assert_eq!(inv.row(2), &[1, 2]);
    }

    #[test]
    fn inversion_dedups_multi_slot_references() {
        // degenerate edge referencing the same node twice
        let m = MapTable::new("loop", 1, 2, 2, vec![1, 1]);
        let inv = m.invert();
        assert_eq!(inv.row(1), &[0]);
        assert!(inv.row(0).is_empty());
    }

    #[test]
    fn permute_targets_relabels() {
        let mut m = edge2node_square();
        // swap node labels 0 <-> 3
        m.permute_targets(&[3, 1, 2, 0]);
        assert_eq!(m.row(0), &[3, 1]);
        assert_eq!(m.row(3), &[0, 3]);
        m.validate().unwrap();
    }

    #[test]
    fn reorder_rows_permutes_elements() {
        let mut m = edge2node_square();
        m.reorder_rows(&[2, 3, 0, 1]);
        assert_eq!(m.row(0), &[2, 3]);
        assert_eq!(m.row(2), &[0, 1]);
    }

    #[test]
    fn byte_accounting() {
        let m = edge2node_square();
        assert_eq!(m.bytes(), 8 * 4);
    }
}
