//! Leaf kernels: the per-processor computations the compiler specializes.
//!
//! In the paper, TACO's code generation emits fused imperative loops for the
//! innermost (single-node) computation. In this reproduction the compiler
//! recognizes the statement's shape and dispatches to a specialized Rust
//! leaf kernel; statements that match no specialization fall back to the
//! loop-IR interpreter ([`spdistal_ir::interp`]), mirroring how a library
//! would fall back to composition. Either way the leaf operates only on the
//! sub-tensor its color owns, by clamping coordinate-tree iteration to the
//! color's partition.

pub mod matrix;
pub mod specialized;
pub mod split;
pub mod tensor3;

use spdistal_ir::{Assignment, Term};
use spdistal_runtime::IntervalSet;
use spdistal_sparse::{Level, LevelFormat, SpTensor};

pub use split::{color_spans, split_level, KernelSpan};

use crate::level_funcs::{LevelClamps, TensorPartition};

/// The specialized leaf computations (the paper's evaluation kernels,
/// Section VI-A).
#[derive(Clone, Debug, PartialEq)]
pub enum LeafKernel {
    /// `a(i) = B(i,j) · c(j)`
    SpMv,
    /// `A(i,j) = B(i,k) · C(k,j)`
    SpMm { jdim: usize },
    /// `A(i,j) = B(i,j) + C(i,j) + D(i,j)`
    SpAdd3,
    /// `A(i,j) = B(i,j) · C(i,k) · D(k,j)`
    Sddmm { kdim: usize },
    /// `A(i,j) = B(i,j,k) · c(k)`
    SpTtv,
    /// `A(i,l) = B(i,j,k) · C(j,l) · D(k,l)`
    SpMttkrp { ldim: usize },
    /// Anything else: interpreted fallback.
    Generic,
}

/// What [`recognize`]'s `lookup` reports per tensor:
/// `(order, is_sparse, dims)`.
pub type TensorInfo = (usize, bool, Vec<usize>);

/// Recognize the statement shape. `lookup(name)` returns
/// `(order, is_sparse, dims)` for a tensor.
pub fn recognize(stmt: &Assignment, lookup: &dyn Fn(&str) -> Option<TensorInfo>) -> LeafKernel {
    let sop = stmt.rhs.sum_of_products();
    let lhs = &stmt.lhs;

    let info = |t: &str| lookup(t);
    fn access_of(term: &[Term]) -> Vec<&spdistal_ir::Access> {
        term.iter()
            .filter_map(|t| match t {
                Term::Access(a) => Some(a),
                Term::Const(_) => None,
            })
            .collect()
    }

    // SpAdd3: three singleton sparse terms, all with the lhs's index vars.
    if sop.len() == 3 && lhs.indices.len() == 2 {
        let all_match = sop.iter().all(|term| {
            let acc = access_of(term);
            acc.len() == 1
                && acc[0].indices == lhs.indices
                && info(&acc[0].tensor).is_some_and(|(o, s, _)| o == 2 && s)
        });
        if all_match {
            return LeafKernel::SpAdd3;
        }
    }

    if sop.len() != 1 {
        return LeafKernel::Generic;
    }
    let acc = access_of(&sop[0]);

    match acc.as_slice() {
        // SpMV: B(i,j) * c(j), lhs a(i).
        [b, c] if lhs.indices.len() == 1 => {
            let (i,) = (lhs.indices[0],);
            if b.indices.len() == 2
                && c.indices.len() == 1
                && b.indices[0] == i
                && b.indices[1] == c.indices[0]
                && info(&b.tensor).is_some_and(|(o, s, _)| o == 2 && s)
                && info(&c.tensor).is_some_and(|(o, s, _)| o == 1 && !s)
            {
                return LeafKernel::SpMv;
            }
            LeafKernel::Generic
        }
        // SpMM: B(i,k) * C(k,j) -> A(i,j);  SpTTV: B(i,j,k) * c(k) -> A(i,j).
        [b, c] if lhs.indices.len() == 2 => {
            let (i, j) = (lhs.indices[0], lhs.indices[1]);
            if b.indices.len() == 2
                && c.indices.len() == 2
                && b.indices[0] == i
                && b.indices[1] == c.indices[0]
                && c.indices[1] == j
                && info(&b.tensor).is_some_and(|(o, s, _)| o == 2 && s)
            {
                if let Some((_, false, dims)) = info(&c.tensor) {
                    return LeafKernel::SpMm { jdim: dims[1] };
                }
            }
            if b.indices.len() == 3
                && c.indices.len() == 1
                && b.indices[0] == i
                && b.indices[1] == j
                && b.indices[2] == c.indices[0]
                && info(&b.tensor).is_some_and(|(o, s, _)| o == 3 && s)
                && info(&c.tensor).is_some_and(|(_, s, _)| !s)
            {
                return LeafKernel::SpTtv;
            }
            LeafKernel::Generic
        }
        // SDDMM: B(i,j)*C(i,k)*D(k,j);  SpMTTKRP: B(i,j,k)*C(j,l)*D(k,l).
        [b, c, d] if lhs.indices.len() == 2 => {
            let (i, j) = (lhs.indices[0], lhs.indices[1]);
            if b.indices.len() == 2
                && b.indices[0] == i
                && b.indices[1] == j
                && c.indices.len() == 2
                && d.indices.len() == 2
                && c.indices[0] == i
                && c.indices[1] == d.indices[0]
                && d.indices[1] == j
                && info(&b.tensor).is_some_and(|(o, s, _)| o == 2 && s)
                && info(&c.tensor).is_some_and(|(_, s, _)| !s)
                && info(&d.tensor).is_some_and(|(_, s, _)| !s)
            {
                if let Some((_, _, dims)) = info(&c.tensor) {
                    return LeafKernel::Sddmm { kdim: dims[1] };
                }
            }
            // SpMTTKRP: lhs A(i, l).
            let l = lhs.indices[1];
            if b.indices.len() == 3
                && b.indices[0] == i
                && c.indices.len() == 2
                && d.indices.len() == 2
                && c.indices[0] == b.indices[1]
                && d.indices[0] == b.indices[2]
                && c.indices[1] == l
                && d.indices[1] == l
                && info(&b.tensor).is_some_and(|(o, s, _)| o == 3 && s)
                && info(&c.tensor).is_some_and(|(_, s, _)| !s)
                && info(&d.tensor).is_some_and(|(_, s, _)| !s)
            {
                if let Some((_, _, dims)) = info(&c.tensor) {
                    return LeafKernel::SpMttkrp { ldim: dims[1] };
                }
            }
            LeafKernel::Generic
        }
        _ => LeafKernel::Generic,
    }
}

/// The shared output view the leaf kernels write through.
///
/// Point tasks of one launch may hold views over the *same* output buffer
/// concurrently (disjoint output partitions write in place). Routing those
/// writes through raw pointers — instead of handing each task a
/// `&mut [f64]` over the whole buffer — keeps the aliasing model honest:
/// no two `&mut` views of one allocation are ever live at once, so the
/// pattern is clean under Miri's aliasing rules, not merely race-free.
///
/// Disjointness is still the caller's contract, exactly as it is for the
/// dependence graph: [`OutVals::new`] takes an exclusive borrow (sound for
/// any single-threaded use), and the `Sync` impl extends that to shared
/// use under plan execution's guarantee that tasks with overlapping,
/// non-commuting output requirements are serialized by the task graph —
/// concurrent calls never touch the same element.
pub struct OutVals<'a> {
    ptr: *mut f64,
    len: usize,
    _life: std::marker::PhantomData<&'a mut [f64]>,
}

// SAFETY (`Send`): `OutVals` is a raw view over `f64`s owned elsewhere;
// `f64` is `Send`, and moving the view to another thread moves only the
// pointer + length — validity for `'a` is pinned by the `PhantomData`
// borrow, so the referent cannot be freed or reallocated while any view
// (on any thread) is live.
unsafe impl Send for OutVals<'_> {}
// SAFETY (`Sync`): sharing `&OutVals` across threads shares write access
// to the buffer, which is sound only under the aliasing invariant stated
// in the type docs: (1) while any view is live, no `&`/`&mut [f64]`
// reference to the viewed elements exists (all access goes through raw
// pointers), and (2) two tasks holding views over the same allocation
// never access the same element concurrently — plan execution's task
// graph serializes overlapping, non-commuting output requirements.
// Callers constructing views via `from_raw` inherit both obligations.
unsafe impl Sync for OutVals<'_> {}

impl<'a> OutVals<'a> {
    /// View an exclusively borrowed buffer.
    pub fn new(buf: &'a mut [f64]) -> Self {
        OutVals {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _life: std::marker::PhantomData,
        }
    }

    /// View `len` elements starting at `ptr`.
    ///
    /// # Safety
    /// `ptr..ptr+len` must stay valid for writes for `'a`, and no `&`/
    /// `&mut` reference to those elements may be used while this view is
    /// live. Concurrent holders must never access the same element.
    pub unsafe fn from_raw(ptr: *mut f64, len: usize) -> Self {
        OutVals {
            ptr,
            len,
            _life: std::marker::PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `out[i] += v`.
    #[inline]
    pub fn add(&self, i: usize, v: f64) {
        assert!(
            i < self.len,
            "OutVals::add index {i} out of bounds ({})",
            self.len
        );
        // SAFETY: bounds checked; element-disjointness per the type docs.
        unsafe { *self.ptr.add(i) += v }
    }

    /// `out[i] = v`.
    #[inline]
    pub fn set(&self, i: usize, v: f64) {
        assert!(
            i < self.len,
            "OutVals::set index {i} out of bounds ({})",
            self.len
        );
        // SAFETY: bounds checked; element-disjointness per the type docs.
        unsafe { *self.ptr.add(i) = v }
    }

    /// `out[start + j] += v * src[j]` for every `j` — the dense row update
    /// of SpMM. One bounds check for the whole row keeps the inner loop as
    /// cheap as the `&mut`-slice iteration it replaced.
    #[inline]
    pub fn add_scaled(&self, start: usize, v: f64, src: &[f64]) {
        let end = start
            .checked_add(src.len())
            .expect("OutVals::add_scaled range overflow");
        assert!(
            end <= self.len,
            "OutVals::add_scaled range {start}..{end} out of bounds ({})",
            self.len
        );
        for (j, s) in src.iter().enumerate() {
            // SAFETY: start + j < end <= len (checked above).
            unsafe { *self.ptr.add(start + j) += v * s }
        }
    }

    /// Exclusive view of `out[start..start + len]`, for kernels that make
    /// many updates to one dense output row (SpMM, SpMTTKRP): one bounds
    /// check and one noalias slice for the whole row instead of a checked
    /// raw-pointer write per update.
    ///
    /// # Safety
    ///
    /// The caller must be the range's only accessor for the returned
    /// slice's lifetime. Under plan execution this is the type's own
    /// contract: tasks whose output requirements overlap are serialized
    /// by the dependence graph, and concurrent tasks touch disjoint
    /// elements.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, start: usize, len: usize) -> &mut [f64] {
        let end = start
            .checked_add(len)
            .expect("OutVals::row_mut range overflow");
        assert!(
            end <= self.len,
            "OutVals::row_mut range {start}..{end} out of bounds ({})",
            self.len
        );
        // SAFETY: bounds checked; exclusivity is the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }

    /// `out[start + j] += v * a[j] * b[j]` for every `j` — the factor-row
    /// update of SpMTTKRP. Bounds checked once per row.
    #[inline]
    pub fn add_scaled_product(&self, start: usize, v: f64, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "OutVals::add_scaled_product row widths");
        let end = start
            .checked_add(a.len())
            .expect("OutVals::add_scaled_product range overflow");
        assert!(
            end <= self.len,
            "OutVals::add_scaled_product range {start}..{end} out of bounds ({})",
            self.len
        );
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            // SAFETY: start + j < end <= len (checked above).
            unsafe { *self.ptr.add(start + j) += v * x * y }
        }
    }
}

/// The visitor callback of [`walk_partitioned`]:
/// `f(coords, level_entries, value)`.
pub type EntryVisitor<'a> = dyn FnMut(&[i64], &[usize], f64) + 'a;

/// Walk the stored entries of `t` owned by `color` under `part`, calling
/// `f(coords, level_entries, value)` for each. Iteration at every level is
/// clamped to the color's entry partition, so aliased partitions (e.g.
/// boundary rows of a non-zero split) visit exactly the positions the color
/// owns at the leaf level.
pub fn walk_partitioned(t: &SpTensor, part: &TensorPartition, color: usize, f: &mut EntryVisitor) {
    walk_partitioned_span(t, part, color, None, f)
}

/// [`walk_partitioned`] restricted to one [`KernelSpan`]: the span's level
/// is additionally clamped to the span's subset, every other level keeps
/// the color's clamps. Walking every span of a color (chunks of the
/// color's subset at one level) visits exactly the color's entries, each
/// exactly once, because every leaf entry descends from exactly one
/// split-level entry.
pub fn walk_partitioned_span(
    t: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    f: &mut EntryVisitor,
) {
    let mut coords = vec![0i64; t.order()];
    let mut entries = vec![0usize; t.order()];
    // Per-level clamps: the color's subsets, with the span's level
    // intersected once up front (not per parent entry) — the same seam the
    // specialized kernels resolve their bounds through.
    let clamps = LevelClamps::new(part, color, span);
    let clamp_refs: Vec<&IntervalSet> = (0..t.order()).map(|l| clamps.level(l)).collect();
    walk_rec(t, &clamp_refs, 0, 0, &mut coords, &mut entries, f);
}

#[allow(clippy::too_many_arguments)]
fn walk_rec(
    t: &SpTensor,
    clamps: &[&IntervalSet],
    level: usize,
    parent_entry: usize,
    coords: &mut Vec<i64>,
    entries: &mut Vec<usize>,
    f: &mut EntryVisitor,
) {
    if level == t.order() {
        f(coords, entries, t.vals()[parent_entry]);
        return;
    }
    let subset = clamps[level];
    match t.level(level) {
        Level::Dense { size } => {
            let s = *size as i64;
            let range = spdistal_runtime::Rect1::new(
                parent_entry as i64 * s,
                parent_entry as i64 * s + s - 1,
            );
            let clamped: Vec<_> = subset.intersect_rect(range).collect();
            for r in clamped {
                for e in r.lo..=r.hi {
                    coords[level] = e - parent_entry as i64 * s;
                    entries[level] = e as usize;
                    walk_rec(t, clamps, level + 1, e as usize, coords, entries, f);
                }
            }
        }
        Level::Compressed { pos, crd } => {
            let range = pos[parent_entry];
            if range.is_empty() {
                return;
            }
            let clamped: Vec<_> = subset.intersect_rect(range).collect();
            for r in clamped {
                for q in r.lo..=r.hi {
                    coords[level] = crd[q as usize];
                    entries[level] = q as usize;
                    walk_rec(t, clamps, level + 1, q as usize, coords, entries, f);
                }
            }
        }
        Level::Singleton { crd } => {
            if subset.contains(parent_entry as i64) {
                coords[level] = crd[parent_entry];
                entries[level] = parent_entry;
                walk_rec(t, clamps, level + 1, parent_entry, coords, entries, f);
            }
        }
    }
}

/// True iff the tensor has any compressed level (the "bolded" tensors of
/// the paper's kernel list).
pub fn is_sparse(t: &SpTensor) -> bool {
    t.formats().contains(&LevelFormat::Compressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level_funcs::{nonzero_partition, partition_tensor, replicated_partition};
    use spdistal_ir::{Access, Expr, VarCtx};
    use spdistal_sparse::generate;

    fn mk_lookup(
        entries: Vec<(&'static str, usize, bool, Vec<usize>)>,
    ) -> impl Fn(&str) -> Option<(usize, bool, Vec<usize>)> {
        move |name: &str| {
            entries
                .iter()
                .find(|(n, _, _, _)| *n == name)
                .map(|(_, o, s, d)| (*o, *s, d.clone()))
        }
    }

    #[test]
    fn recognize_all_six() {
        let mut ctx = VarCtx::new();
        let [i, j, k, l] = ctx.fresh_n(["i", "j", "k", "l"]);
        let lk = mk_lookup(vec![
            ("B2", 2, true, vec![10, 12]),
            ("B3", 3, true, vec![10, 12, 14]),
            ("C2", 2, true, vec![10, 12]),
            ("D2", 2, true, vec![10, 12]),
            ("c", 1, false, vec![12]),
            ("ck", 1, false, vec![14]),
            ("Cd", 2, false, vec![12, 8]),
            ("Ck", 2, false, vec![10, 6]),
            ("Dk", 2, false, vec![6, 12]),
            ("Cl", 2, false, vec![12, 4]),
            ("Dl", 2, false, vec![14, 4]),
        ]);

        // SpMV
        let s = Assignment::new(
            Access::new("a", &[i]),
            Expr::access("B2", &[i, j]) * Expr::access("c", &[j]),
        );
        assert_eq!(recognize(&s, &lk), LeafKernel::SpMv);

        // SpMM
        let s = Assignment::new(
            Access::new("A", &[i, j]),
            Expr::access("B2", &[i, k]) * Expr::access("Dk", &[k, j]),
        );
        assert_eq!(recognize(&s, &lk), LeafKernel::SpMm { jdim: 12 });

        // SpAdd3
        let s = Assignment::new(
            Access::new("A", &[i, j]),
            Expr::access("B2", &[i, j]) + Expr::access("C2", &[i, j]) + Expr::access("D2", &[i, j]),
        );
        assert_eq!(recognize(&s, &lk), LeafKernel::SpAdd3);

        // SDDMM
        let s = Assignment::new(
            Access::new("A", &[i, j]),
            Expr::access("B2", &[i, j]) * Expr::access("Ck", &[i, k]) * Expr::access("Dk", &[k, j]),
        );
        assert_eq!(recognize(&s, &lk), LeafKernel::Sddmm { kdim: 6 });

        // SpTTV
        let s = Assignment::new(
            Access::new("A", &[i, j]),
            Expr::access("B3", &[i, j, k]) * Expr::access("ck", &[k]),
        );
        assert_eq!(recognize(&s, &lk), LeafKernel::SpTtv);

        // SpMTTKRP
        let s = Assignment::new(
            Access::new("A", &[i, l]),
            Expr::access("B3", &[i, j, k])
                * Expr::access("Cl", &[j, l])
                * Expr::access("Dl", &[k, l]),
        );
        assert_eq!(recognize(&s, &lk), LeafKernel::SpMttkrp { ldim: 4 });

        // Something else.
        let s = Assignment::new(Access::new("a", &[i]), Expr::access("c", &[i]));
        assert_eq!(recognize(&s, &lk), LeafKernel::Generic);
    }

    #[test]
    fn walk_partitioned_covers_all_once_when_disjoint() {
        let t = generate::uniform(32, 32, 300, 5);
        let nnz = t.nnz();
        let part = partition_tensor(&t, 1, nonzero_partition(&t, 1, 4));
        let mut seen = vec![0u32; t.num_stored()];
        for c in 0..4 {
            walk_partitioned(&t, &part, c, &mut |_, entries, _| {
                seen[entries[1]] += 1;
            });
        }
        assert_eq!(seen.len(), nnz);
        assert!(
            seen.iter().all(|&s| s == 1),
            "each nnz visited exactly once"
        );
    }

    #[test]
    fn walk_replicated_visits_everything_per_color() {
        let t = generate::tensor3_uniform([8, 8, 8], 100, 6);
        let part = replicated_partition(&t, 2);
        let mut count = 0;
        walk_partitioned(&t, &part, 1, &mut |_, _, _| count += 1);
        assert_eq!(count, t.nnz());
    }

    #[test]
    fn walk_coords_match_for_each() {
        let t = generate::tensor3_uniform([6, 7, 8], 60, 7);
        let part = replicated_partition(&t, 1);
        let mut from_walk = Vec::new();
        walk_partitioned(&t, &part, 0, &mut |c, _, v| from_walk.push((c.to_vec(), v)));
        assert_eq!(from_walk, t.to_coo());
    }
}
