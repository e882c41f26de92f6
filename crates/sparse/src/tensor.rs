//! The sparse tensor data structure: a coordinate tree stored level by level
//! (Section III-B of the paper, following TACO's format abstraction).
//!
//! A tensor of order *k* stores each of its *k* dimensions with a *level
//! format*. A `Dense` level stores all coordinates of the dimension as an
//! implicit range `[0, size)`. A `Compressed` level stores only the non-zero
//! coordinates with a `pos`/`crd` pair, where — following SpDISTAL rather
//! than classic TACO — `pos` holds inclusive `(lo, hi)` *interval tuples*
//! into `crd` so that partitions of `pos` and `crd` can be related with the
//! dependent-partitioning operators `image` and `preimage` (Figure 7).

use std::cmp::Ordering;

use spdistal_runtime::Rect1;

/// Per-dimension storage format selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LevelFormat {
    /// All coordinates of the dimension, stored implicitly.
    Dense,
    /// Only non-zero coordinates, stored with `pos`/`crd` arrays.
    Compressed,
    /// Exactly one coordinate per parent entry, stored with a `crd` array
    /// only (no `pos`). `{Compressed, Singleton}` is TACO's COO matrix
    /// layout: the compressed level keeps duplicate outer coordinates, and
    /// each carries a single inner coordinate.
    Singleton,
}

/// Physical storage of one coordinate-tree level.
#[derive(Clone, Debug, PartialEq)]
pub enum Level {
    /// A dense level of extent `size`: parent entry `p` has children
    /// `p*size + c` for every coordinate `c` in `[0, size)`.
    Dense { size: usize },
    /// A compressed level: parent entry `p` has children at positions
    /// `pos[p].lo ..= pos[p].hi` of `crd`; the child coordinate value is
    /// `crd[q]`.
    Compressed { pos: Vec<Rect1>, crd: Vec<i64> },
    /// A singleton level: parent entry `p` has exactly one child, itself at
    /// entry `p`, with coordinate `crd[p]`.
    Singleton { crd: Vec<i64> },
}

impl Level {
    /// The level format this storage implements.
    pub fn format(&self) -> LevelFormat {
        match self {
            Level::Dense { .. } => LevelFormat::Dense,
            Level::Compressed { .. } => LevelFormat::Compressed,
            Level::Singleton { .. } => LevelFormat::Singleton,
        }
    }

    /// Number of entries (coordinate-tree nodes) in this level, given the
    /// number of entries in the parent level.
    pub fn num_entries(&self, parent_entries: usize) -> usize {
        match self {
            Level::Dense { size } => parent_entries * size,
            Level::Compressed { crd, .. } => crd.len(),
            Level::Singleton { crd } => {
                debug_assert_eq!(crd.len(), parent_entries);
                parent_entries
            }
        }
    }
}

/// A sparse tensor: ordered levels plus a values array.
///
/// Dimensions are indexed in *storage order*: `dims()[0]` is the outermost
/// stored dimension. A CSR matrix is `{Dense, Compressed}` over `(rows,
/// cols)`; CSC is the same formats over `(cols, rows)` (the caller reorders
/// coordinates when building).
#[derive(Clone, Debug, PartialEq)]
pub struct SpTensor {
    dims: Vec<usize>,
    levels: Vec<Level>,
    vals: Vec<f64>,
}

impl SpTensor {
    /// Assemble a tensor from parts, validating structural invariants.
    pub fn from_parts(dims: Vec<usize>, levels: Vec<Level>, vals: Vec<f64>) -> Self {
        assert_eq!(dims.len(), levels.len(), "one level per dimension");
        let mut entries = 1usize;
        for (d, level) in levels.iter().enumerate() {
            match level {
                Level::Dense { size } => assert_eq!(*size, dims[d], "dense level extent"),
                Level::Compressed { pos, crd } => {
                    assert_eq!(pos.len(), entries, "pos length == parent entries");
                    debug_assert!(crd.iter().all(|&c| (c as usize) < dims[d]));
                }
                Level::Singleton { crd } => {
                    assert_eq!(crd.len(), entries, "singleton crd length == parent entries");
                    debug_assert!(crd.iter().all(|&c| (c as usize) < dims[d]));
                }
            }
            entries = level.num_entries(entries);
        }
        assert_eq!(vals.len(), entries, "vals length == leaf entries");
        SpTensor { dims, levels, vals }
    }

    /// Extents of the stored dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Tensor order (number of dimensions).
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// The stored levels, outermost first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Storage of level `k`.
    pub fn level(&self, k: usize) -> &Level {
        &self.levels[k]
    }

    /// The values array (one entry per leaf-level entry; for a trailing
    /// dense level this includes explicit zeros).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable values (e.g. for output tensors that reuse an input pattern).
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Number of stored values, counting explicit zeros in trailing dense
    /// levels.
    pub fn num_stored(&self) -> usize {
        self.vals.len()
    }

    /// Number of structurally non-zero stored values.
    pub fn nnz(&self) -> usize {
        if self
            .levels
            .last()
            .is_some_and(|l| l.format() == LevelFormat::Dense)
        {
            self.vals.iter().filter(|v| **v != 0.0).count()
        } else {
            self.vals.len()
        }
    }

    /// The per-dimension formats.
    pub fn formats(&self) -> Vec<LevelFormat> {
        self.levels.iter().map(Level::format).collect()
    }

    /// Estimated resident bytes of all arrays (used for OOM modeling).
    pub fn bytes(&self) -> u64 {
        let mut b = (self.vals.len() * std::mem::size_of::<f64>()) as u64;
        for l in &self.levels {
            match l {
                Level::Compressed { pos, crd } => {
                    b += (pos.len() * std::mem::size_of::<Rect1>()) as u64;
                    b += (crd.len() * std::mem::size_of::<i64>()) as u64;
                }
                Level::Singleton { crd } => {
                    b += (crd.len() * std::mem::size_of::<i64>()) as u64;
                }
                Level::Dense { .. } => {}
            }
        }
        b
    }

    /// Visit every stored entry `(coordinates, value)` in storage order.
    /// Trailing-dense entries with value zero are visited too.
    pub fn for_each(&self, mut f: impl FnMut(&[i64], f64)) {
        let mut coord = vec![0i64; self.order()];
        self.walk(0, 0, &mut coord, &mut f);
    }

    fn walk(
        &self,
        level: usize,
        entry: usize,
        coord: &mut Vec<i64>,
        f: &mut impl FnMut(&[i64], f64),
    ) {
        if level == self.order() {
            f(coord, self.vals[entry]);
            return;
        }
        match &self.levels[level] {
            Level::Dense { size } => {
                for c in 0..*size {
                    coord[level] = c as i64;
                    self.walk(level + 1, entry * size + c, coord, f);
                }
            }
            Level::Compressed { pos, crd } => {
                let r = pos[entry];
                if r.is_empty() {
                    return;
                }
                for q in r.lo..=r.hi {
                    coord[level] = crd[q as usize];
                    self.walk(level + 1, q as usize, coord, f);
                }
            }
            Level::Singleton { crd } => {
                coord[level] = crd[entry];
                self.walk(level + 1, entry, coord, f);
            }
        }
    }

    /// The value position of `coord` (one component per stored
    /// dimension): the entry [`SpTensor::for_each`] visits it at, or `None`
    /// if the coordinate tree holds no such entry. A trailing-dense
    /// position is located even when its value is zero (`to_coo` skips
    /// those). The walk descends level by level: a Dense level computes
    /// `entry * size + c`, a Compressed level binary-searches its segment
    /// of `crd`, and a Compressed level followed by Singleton levels (the
    /// COO layouts) binary-searches the segment lexicographically over the
    /// whole coordinate tail. The searches assume sorted segments, as
    /// [`crate::CooTensor::build`] makes them (see
    /// [`SpTensor::is_canonical`]).
    pub fn locate(&self, coord: &[i64]) -> Option<usize> {
        if coord.len() != self.order() {
            return None;
        }
        let mut entry = 0usize;
        let mut k = 0;
        while k < self.order() {
            let c = coord[k];
            match &self.levels[k] {
                Level::Dense { size } => {
                    if c < 0 || c as usize >= *size {
                        return None;
                    }
                    entry = entry * size + c as usize;
                }
                Level::Compressed { pos, .. } => {
                    let r = pos[entry];
                    if r.is_empty() {
                        return None;
                    }
                    let last = k + self.singleton_tail(k);
                    let (mut lo, mut hi) = (r.lo as usize, r.hi as usize + 1);
                    loop {
                        if lo >= hi {
                            return None;
                        }
                        let q = lo + (hi - lo) / 2;
                        match self
                            .crd_tuple(k..last + 1, q)
                            .cmp(coord[k..=last].iter().copied())
                        {
                            Ordering::Less => lo = q + 1,
                            Ordering::Greater => hi = q,
                            Ordering::Equal => {
                                entry = q;
                                break;
                            }
                        }
                    }
                    k = last;
                }
                Level::Singleton { crd } => {
                    if crd[entry] != c {
                        return None;
                    }
                }
            }
            k += 1;
        }
        Some(entry)
    }

    /// Whether [`crate::CooTensor::build`] reassembles exactly this tensor
    /// from its [`SpTensor::to_coo`] under the same formats, so values
    /// written at [`SpTensor::locate`]d positions leave the tensor a
    /// rebuild would make. That holds when Dense levels only form a prefix
    /// (a Dense level below a sparse one drops subtrees whose values all
    /// become zero), every Compressed level's segments tile its `crd` in
    /// parent order with [`Rect1::empty`] for empty ones, each segment is
    /// strictly increasing (lexicographically over the Singleton levels
    /// directly below it, the only place Singletons may sit), no sparse
    /// entry has an empty subtree, and a fully dense tensor stores no
    /// `-0.0` (`to_coo` skips it, so a rebuild stores `+0.0`).
    /// [`SpTensor::from_parts`] checks none of this.
    pub fn is_canonical(&self) -> bool {
        let dense_prefix = self
            .levels
            .iter()
            .take_while(|l| l.format() == LevelFormat::Dense)
            .count();
        for k in dense_prefix..self.order() {
            match &self.levels[k] {
                Level::Dense { .. } => return false,
                Level::Singleton { .. } if k == dense_prefix => return false,
                Level::Singleton { .. } => {}
                Level::Compressed { pos, crd } => {
                    let tail = self.singleton_tail(k);
                    if self.levels[k + tail + 1..]
                        .iter()
                        .any(|l| l.format() == LevelFormat::Singleton)
                    {
                        return false;
                    }
                    let keep_empty = k == dense_prefix;
                    let mut next = 0i64;
                    for &r in pos {
                        if r == Rect1::empty() && keep_empty {
                            continue;
                        }
                        if r.is_empty() || r.lo != next {
                            return false;
                        }
                        let seg = r.lo as usize..r.hi as usize + 1;
                        let ordered = if tail == 0 {
                            crd[seg].windows(2).all(|w| w[0] < w[1])
                        } else {
                            let ks = k..k + tail + 1;
                            (seg.start..seg.end - 1).all(|q| {
                                self.crd_tuple(ks.clone(), q)
                                    .lt(self.crd_tuple(ks.clone(), q + 1))
                            })
                        };
                        if !ordered {
                            return false;
                        }
                        next = r.hi + 1;
                    }
                    if next as usize != crd.len() {
                        return false;
                    }
                }
            }
        }
        dense_prefix < self.order() || self.vals.iter().all(|v| *v != 0.0 || v.is_sign_positive())
    }

    /// Number of Singleton levels directly below level `k`.
    fn singleton_tail(&self, k: usize) -> usize {
        self.levels[k + 1..]
            .iter()
            .take_while(|l| l.format() == LevelFormat::Singleton)
            .count()
    }

    /// The `crd` array of sparse level `k` (empty for a Dense level).
    fn crd_of(&self, k: usize) -> &[i64] {
        match &self.levels[k] {
            Level::Compressed { crd, .. } | Level::Singleton { crd } => crd,
            Level::Dense { .. } => &[],
        }
    }

    /// The coordinates stored at position `q` of the sparse levels `ks`.
    fn crd_tuple(&self, ks: std::ops::Range<usize>, q: usize) -> impl Iterator<Item = i64> + '_ {
        ks.map(move |l| self.crd_of(l)[q])
    }

    /// Flatten to coordinate form (structural non-zeros only).
    pub fn to_coo(&self) -> Vec<(Vec<i64>, f64)> {
        let mut out = Vec::new();
        let trailing_dense = self
            .levels
            .last()
            .is_some_and(|l| l.format() == LevelFormat::Dense);
        self.for_each(|c, v| {
            if !trailing_dense || v != 0.0 {
                out.push((c.to_vec(), v));
            }
        });
        out
    }

    /// CSR accessors for a `{Dense, Compressed}` matrix: `(pos, crd, vals)`.
    pub fn csr_views(&self) -> Option<(&[Rect1], &[i64], &[f64])> {
        if self.order() != 2 {
            return None;
        }
        match (&self.levels[0], &self.levels[1]) {
            (Level::Dense { .. }, Level::Compressed { pos, crd }) => Some((pos, crd, &self.vals)),
            _ => None,
        }
    }

    /// Number of non-zeros in row `i` of a CSR matrix.
    pub fn row_nnz(&self, i: usize) -> usize {
        match &self.levels[1] {
            Level::Compressed { pos, .. } => pos[i].len() as usize,
            Level::Dense { size } => *size,
            Level::Singleton { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4x4 matrix of Figure 3 / Figure 7 in CSR.
    pub fn fig7_matrix() -> SpTensor {
        SpTensor::from_parts(
            vec![4, 4],
            vec![
                Level::Dense { size: 4 },
                Level::Compressed {
                    pos: vec![
                        Rect1::new(0, 2),
                        Rect1::new(3, 4),
                        Rect1::new(5, 5),
                        Rect1::new(6, 7),
                    ],
                    crd: vec![0, 1, 3, 1, 3, 0, 0, 3],
                },
            ],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        )
    }

    #[test]
    fn csr_roundtrip_coo() {
        let t = fig7_matrix();
        assert_eq!(t.nnz(), 8);
        let coo = t.to_coo();
        assert_eq!(coo.len(), 8);
        assert_eq!(coo[0], (vec![0, 0], 1.0));
        assert_eq!(coo[2], (vec![0, 3], 3.0));
        assert_eq!(coo[7], (vec![3, 3], 8.0));
    }

    #[test]
    fn dense_vector() {
        let t = SpTensor::from_parts(
            vec![4],
            vec![Level::Dense { size: 4 }],
            vec![1.0, 0.0, 2.0, 0.0],
        );
        assert_eq!(t.num_stored(), 4);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.to_coo(), vec![(vec![0], 1.0), (vec![2], 2.0)]);
    }

    #[test]
    fn empty_rows_skipped() {
        let t = SpTensor::from_parts(
            vec![3, 4],
            vec![
                Level::Dense { size: 3 },
                Level::Compressed {
                    pos: vec![Rect1::new(0, 0), Rect1::empty(), Rect1::new(1, 1)],
                    crd: vec![2, 0],
                },
            ],
            vec![5.0, 6.0],
        );
        let coo = t.to_coo();
        assert_eq!(coo, vec![(vec![0, 2], 5.0), (vec![2, 0], 6.0)]);
        assert_eq!(t.row_nnz(0), 1);
        assert_eq!(t.row_nnz(1), 0);
    }

    #[test]
    fn csf_3tensor_walk() {
        // Two slices: slice 0 has rows {0: [1], 2: [0,3]}, slice 2 has row {1: [2]}.
        let t = SpTensor::from_parts(
            vec![3, 3, 4],
            vec![
                Level::Compressed {
                    pos: vec![Rect1::new(0, 1)],
                    crd: vec![0, 2],
                },
                Level::Compressed {
                    pos: vec![Rect1::new(0, 1), Rect1::new(2, 2)],
                    crd: vec![0, 2, 1],
                },
                Level::Compressed {
                    pos: vec![Rect1::new(0, 0), Rect1::new(1, 2), Rect1::new(3, 3)],
                    crd: vec![1, 0, 3, 2],
                },
            ],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        assert_eq!(
            t.to_coo(),
            vec![
                (vec![0, 0, 1], 1.0),
                (vec![0, 2, 0], 2.0),
                (vec![0, 2, 3], 3.0),
                (vec![2, 1, 2], 4.0),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "pos length")]
    fn bad_pos_length_rejected() {
        SpTensor::from_parts(
            vec![2, 2],
            vec![
                Level::Dense { size: 2 },
                Level::Compressed {
                    pos: vec![Rect1::new(0, 0)],
                    crd: vec![0],
                },
            ],
            vec![1.0],
        );
    }

    use crate::builder::CooTensor;
    use crate::generate;
    use LevelFormat::{Compressed as C, Dense as D, Singleton as S};

    /// `t` rebuilt without the entries of its first quarter of outer
    /// coordinates (a leading block that stores nothing).
    fn first_quarter_empty(t: &SpTensor) -> SpTensor {
        let mut coo = CooTensor::new(t.dims().to_vec());
        for (c, v) in t.to_coo() {
            if c[0] as usize >= t.dims()[0] / 4 {
                coo.push(&c, v);
            }
        }
        coo.build(&t.formats())
    }

    /// Every blessed layout (CSR, DCSR, COO, CSF, DCSF, COO3, dense) over a
    /// small matrix with empty rows, a 3-tensor, and their first-quarter-
    /// empty variants.
    fn layouts() -> Vec<SpTensor> {
        let m = generate::uniform(24, 20, 90, 5);
        let t3 = generate::tensor3_uniform([8, 7, 6], 70, 6);
        let mut bases = vec![
            (
                m.clone(),
                vec![vec![D, C], vec![C, C], vec![C, S], vec![D, D]],
            ),
            (
                t3.clone(),
                vec![vec![D, C, C], vec![C, C, C], vec![C, S, S], vec![D, D, D]],
            ),
        ];
        bases.push((first_quarter_empty(&m), bases[0].1.clone()));
        bases.push((first_quarter_empty(&t3), bases[1].1.clone()));
        let mut out = Vec::new();
        for (base, formats) in bases {
            for f in formats {
                let mut coo = CooTensor::new(base.dims().to_vec());
                for (c, v) in base.to_coo() {
                    coo.push(&c, v);
                }
                out.push(coo.build(&f));
            }
        }
        out
    }

    /// Every coordinate of `dims`, row-major.
    fn grid(dims: &[usize]) -> Vec<Vec<i64>> {
        let mut all = vec![vec![]];
        for &d in dims {
            all = all
                .into_iter()
                .flat_map(|c: Vec<i64>| {
                    (0..d as i64).map(move |x| {
                        let mut c = c.clone();
                        c.push(x);
                        c
                    })
                })
                .collect();
        }
        all
    }

    #[test]
    fn locate_finds_every_stored_entry_at_its_visit_position() {
        for t in layouts() {
            assert!(t.is_canonical(), "{:?}", t.formats());
            let mut stored = std::collections::BTreeMap::new();
            let mut q = 0;
            t.for_each(|c, v| {
                assert_eq!(t.locate(c), Some(q), "{:?} {c:?}", t.formats());
                assert_eq!(t.vals()[q].to_bits(), v.to_bits());
                stored.insert(c.to_vec(), q);
                q += 1;
            });
            assert_eq!(q, t.num_stored());
            for (c, _) in t.to_coo() {
                assert!(stored.contains_key(&c));
            }
            for c in grid(t.dims()) {
                assert_eq!(t.locate(&c), stored.get(&c).copied(), "{c:?}");
            }
        }
    }

    #[test]
    fn locate_rejects_wrong_order_and_empty_tensors() {
        let t = fig7_matrix();
        assert_eq!(t.locate(&[0]), None);
        assert_eq!(t.locate(&[2, 0]), Some(5));
        assert_eq!(t.locate(&[2, 1]), None);
        for f in [vec![D, C], vec![C, C], vec![C, S]] {
            let empty = CooTensor::new(vec![3, 3]).build(&f);
            assert!(empty.is_canonical());
            assert!(grid(&[3, 3]).iter().all(|c| empty.locate(c).is_none()));
        }
    }

    #[test]
    fn uncanonical_levels_are_detected() {
        assert!(fig7_matrix().is_canonical());
        let csr = |pos: Vec<Rect1>, crd: Vec<i64>| {
            let n = crd.len();
            SpTensor::from_parts(
                vec![2, 4],
                vec![Level::Dense { size: 2 }, Level::Compressed { pos, crd }],
                vec![1.0; n],
            )
        };
        // Sorted, tiled, canonical empties.
        assert!(csr(vec![Rect1::new(0, 1), Rect1::empty()], vec![1, 3]).is_canonical());
        // A segment out of order, or holding a duplicate.
        assert!(!csr(vec![Rect1::new(0, 1), Rect1::empty()], vec![3, 1]).is_canonical());
        assert!(!csr(vec![Rect1::new(0, 1), Rect1::empty()], vec![2, 2]).is_canonical());
        // An empty segment spelled other than `Rect1::empty()`.
        assert!(!csr(vec![Rect1::new(0, 1), Rect1::new(2, 1)], vec![1, 3]).is_canonical());
        // Segments that overlap or leave `crd` entries unowned.
        assert!(!csr(vec![Rect1::new(0, 1), Rect1::new(1, 1)], vec![1, 3]).is_canonical());
        assert!(!csr(vec![Rect1::new(1, 1), Rect1::empty()], vec![1, 3]).is_canonical());
        // A sparse entry with an empty subtree (DCSR row 1 stores nothing).
        let dcsr = SpTensor::from_parts(
            vec![2, 2],
            vec![
                Level::Compressed {
                    pos: vec![Rect1::new(0, 1)],
                    crd: vec![0, 1],
                },
                Level::Compressed {
                    pos: vec![Rect1::new(0, 0), Rect1::empty()],
                    crd: vec![1],
                },
            ],
            vec![1.0],
        );
        assert!(!dcsr.is_canonical());
        // A fully dense tensor storing -0.0, which `to_coo` skips.
        assert!(crate::dense_vector(vec![1.0, -2.0, 0.0]).is_canonical());
        assert!(!crate::dense_vector(vec![1.0, -0.0]).is_canonical());
        // A Dense level below a sparse one: zeroed values would drop rows.
        let cd = CooTensor::new(vec![2, 2]).build(&[C, D]);
        assert!(!cd.is_canonical());
        // COO whose entries are out of order across the Singleton tail.
        let coo = SpTensor::from_parts(
            vec![2, 3],
            vec![
                Level::Compressed {
                    pos: vec![Rect1::new(0, 1)],
                    crd: vec![0, 0],
                },
                Level::Singleton { crd: vec![2, 1] },
            ],
            vec![1.0, 2.0],
        );
        assert!(!coo.is_canonical());
    }

    #[test]
    fn bytes_accounting() {
        let t = fig7_matrix();
        // vals 8*8 + pos 4*16 + crd 8*8 = 64 + 64 + 64
        assert_eq!(t.bytes(), 192);
    }
}
