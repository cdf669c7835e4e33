//! 1-D block-row domain decomposition.
//!
//! The obstacle code distributes the grid over the peers by contiguous blocks
//! of interior rows; each peer exchanges its first and last owned rows with
//! its up/down neighbours every sweep (the halo exchange whose size — one row
//! of `n` doubles — is the `8·N` bytes that appears everywhere in the
//! performance model).

/// The block-row decomposition of `n` interior rows over `nprocs` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRows {
    /// Number of interior rows.
    pub n: usize,
    /// Number of ranks.
    pub nprocs: usize,
}

impl BlockRows {
    /// Create a decomposition. Panics if there are more ranks than rows.
    pub fn new(n: usize, nprocs: usize) -> Self {
        assert!(nprocs > 0, "need at least one rank");
        assert!(
            n >= nprocs,
            "cannot give {nprocs} ranks fewer than one row each ({n})"
        );
        BlockRows { n, nprocs }
    }

    /// Number of rows owned by `rank`.
    pub fn rows_of(&self, rank: usize) -> usize {
        assert!(rank < self.nprocs);
        let base = self.n / self.nprocs;
        base + usize::from(rank < self.n % self.nprocs)
    }

    /// Half-open range of *interior* row indices (1-based, as used by the
    /// solver) owned by `rank`.
    pub fn row_range(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.nprocs);
        let base = self.n / self.nprocs;
        let extra = self.n % self.nprocs;
        let start = rank * base + rank.min(extra);
        let len = self.rows_of(rank);
        (start + 1, start + len + 1)
    }

    /// Neighbouring ranks of `rank` in the chain.
    pub fn neighbors(&self, rank: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(2);
        if rank > 0 {
            out.push(rank - 1);
        }
        if rank + 1 < self.nprocs {
            out.push(rank + 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_rows_exactly() {
        for nprocs in [1, 2, 3, 5, 8] {
            let d = BlockRows::new(37, nprocs);
            let mut covered = Vec::new();
            for r in 0..nprocs {
                let (b, e) = d.row_range(r);
                assert_eq!(e - b, d.rows_of(r));
                covered.extend(b..e);
            }
            assert_eq!(covered, (1..=37).collect::<Vec<_>>(), "nprocs={nprocs}");
        }
    }

    #[test]
    fn row_counts_are_balanced() {
        let d = BlockRows::new(100, 8);
        let counts: Vec<usize> = (0..8).map(|r| d.rows_of(r)).collect();
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert_eq!(
            *counts.iter().max().unwrap() - *counts.iter().min().unwrap(),
            1
        );
    }

    #[test]
    fn chain_neighbours() {
        let d = BlockRows::new(16, 4);
        assert_eq!(d.neighbors(0), vec![1]);
        assert_eq!(d.neighbors(1), vec![0, 2]);
        assert_eq!(d.neighbors(3), vec![2]);
        let single = BlockRows::new(16, 1);
        assert!(single.neighbors(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "fewer than one row")]
    fn too_many_ranks_are_rejected() {
        BlockRows::new(3, 5);
    }
}
