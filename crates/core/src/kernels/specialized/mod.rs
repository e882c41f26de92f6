//! The specialized kernel layer: monomorphized, span-aware leaf loops for
//! blessed (kernel, storage format) pairs.
//!
//! The paper's pitch is that scheduling is separable from *generated fast
//! code*, and that the generated code keeps the tensor expression apart
//! from the sparse data structure: each kernel is written once, and the
//! per-format iteration comes from level functions (Chou, Kjolstad and
//! Amarasinghe, "Format Abstraction for Sparse Tensor Algebra
//! Compilers"). The generic walker ([`crate::kernels::walk_partitioned_span`])
//! is the library half of that story: it matches on [`Level`] at every
//! node and calls a `dyn FnMut` per stored entry. This module is the
//! generated half, in two pieces:
//!
//! 1. **A level layer.** A `Layout` names how the driver's level 0 is
//!    stored and enumerates one task's stored entries as `Run`s:
//!    consecutive positions of the last level, with each entry's outer
//!    coordinates given through `Coord`. `DenseRows` (CSR, CSF) and
//!    `CompressedRows` (DCSR, doubly-compressed CSF) walk level 0 row by
//!    row and descend the compressed levels below it, so a run shares one
//!    row (and fiber); `CooTails` (COO, `{Compressed, Singleton..}`)
//!    makes one flat pass over the intersected clamps, and its runs carry
//!    a stored coordinate per entry. Every layout resolves its bounds
//!    through [`LevelClamps`] and works on the flat `pos`/`crd`/`vals`
//!    slices — no per-row allocation, no per-entry interval-set lookup or
//!    indirect call.
//! 2. **One body per kernel.** `matrix::{spmv, spmm, sddmm}` and
//!    `tensor3::spmttkrp` are each written once, generic over the
//!    layout; rustc monomorphizes them per [`TABLE`] row
//!    (`spmv::<DenseRows>` is the CSR SpMV), so the closure a body hands
//!    the layout inlines into the layout's loops.
//!
//! ## The kernel table
//!
//! [`lookup`] keys [`TABLE`] by `(kernel name, Format::levels_signature())`
//! — the storage half of the same [`Format::signature`] the `Program`
//! plan cache embeds in its keys. Blessed today:
//!
//! | kernel     | `{Dense,Compressed}` (CSR) | `{Compressed,Compressed}` (DCSR) | `{Compressed,Singleton}` (COO) |
//! |------------|----------------------------|----------------------------------|--------------------------------|
//! | `SpMv`     | `spmv::<DenseRows>`        | `spmv::<CompressedRows>`         | `spmv::<CooTails>`             |
//! | `SpMm`     | `spmm::<DenseRows>`        | `spmm::<CompressedRows>`         | `spmm::<CooTails>`             |
//! | `Sddmm`    | `sddmm::<DenseRows>`       | `sddmm::<CompressedRows>`        | `sddmm::<CooTails>`            |
//!
//! plus `spmttkrp::<_>` on the order-3 analogues: CSF
//! `{Dense,Compressed,Compressed}`, doubly-compressed CSF
//! `{Compressed,Compressed,Compressed}`, and COO
//! `{Compressed,Singleton,Singleton}`. Everything else (`SpTtv`,
//! `SpAdd3`, `Generic`, unblessed layouts) resolves to the generic walker
//! and counts a `kernel.fallback`.
//!
//! ## Contract
//!
//! Every specialized kernel is **bit-identical** to its generic
//! counterpart (`matrix::*_color` / `tensor3::*_color`) for every
//! partition, color, and [`KernelSpan`]: the layouts resolve iteration
//! bounds through the same [`LevelClamps`] seam and emit stored entries in
//! the same ascending position order, and each body performs the same
//! per-element floating-point accumulation sequence. Each also returns the
//! same exact integer op count, so the discrete-event cost model cannot
//! observe which path ran. See `docs/kernels.md` for how to bless a new
//! pair and the identity bar it must clear.
//!
//! [`Format::signature`]: spdistal_ir::Format::signature

mod matrix;
mod tensor3;

use spdistal_runtime::Rect1;
use spdistal_sparse::{Level, SpTensor};

use super::{KernelSpan, LeafKernel, OutVals};
use crate::level_funcs::{LevelClamps, TensorPartition};
use matrix::{sddmm, spmm, spmv};
use tensor3::spmttkrp;

/// A monomorphized leaf implementation, same contract as the generic
/// `*_color` walkers: compute one `(color, span)` task's contribution and
/// return the modeled op count.
pub type SpMvFn =
    fn(&SpTensor, &TensorPartition, usize, Option<&KernelSpan>, &[f64], &OutVals) -> f64;
pub type SpMmFn =
    fn(&SpTensor, &TensorPartition, usize, Option<&KernelSpan>, &[f64], usize, &OutVals) -> f64;
pub type SddmmFn = fn(
    &SpTensor,
    &TensorPartition,
    usize,
    Option<&KernelSpan>,
    &[f64],
    &[f64],
    usize,
    usize,
    &OutVals,
) -> f64;
pub type SpMttkrpFn = fn(
    &SpTensor,
    &TensorPartition,
    usize,
    Option<&KernelSpan>,
    &[f64],
    &[f64],
    usize,
    &OutVals,
) -> f64;

/// One resolved table entry: the kernel-shaped function pointer the
/// per-span execution path calls directly.
#[derive(Clone, Copy)]
pub enum SpecializedKernel {
    SpMv(SpMvFn),
    SpMm(SpMmFn),
    Sddmm(SddmmFn),
    SpMttkrp(SpMttkrpFn),
}

/// The blessed (kernel, storage signature) pairs. Keys are
/// [`kernel_name`] and `Format::levels_signature()`; every value is one
/// kernel body monomorphized for the key's `Layout`.
pub const TABLE: &[(&str, &str, SpecializedKernel)] = &[
    ("SpMv", CSR, SpecializedKernel::SpMv(spmv::<DenseRows>)),
    (
        "SpMv",
        DCSR,
        SpecializedKernel::SpMv(spmv::<CompressedRows>),
    ),
    ("SpMv", COO, SpecializedKernel::SpMv(spmv::<CooTails>)),
    ("SpMm", CSR, SpecializedKernel::SpMm(spmm::<DenseRows>)),
    (
        "SpMm",
        DCSR,
        SpecializedKernel::SpMm(spmm::<CompressedRows>),
    ),
    ("SpMm", COO, SpecializedKernel::SpMm(spmm::<CooTails>)),
    ("Sddmm", CSR, SpecializedKernel::Sddmm(sddmm::<DenseRows>)),
    (
        "Sddmm",
        DCSR,
        SpecializedKernel::Sddmm(sddmm::<CompressedRows>),
    ),
    ("Sddmm", COO, SpecializedKernel::Sddmm(sddmm::<CooTails>)),
    (
        "SpMttkrp",
        CSF,
        SpecializedKernel::SpMttkrp(spmttkrp::<DenseRows>),
    ),
    (
        "SpMttkrp",
        DCSF,
        SpecializedKernel::SpMttkrp(spmttkrp::<CompressedRows>),
    ),
    (
        "SpMttkrp",
        COO3,
        SpecializedKernel::SpMttkrp(spmttkrp::<CooTails>),
    ),
];

const CSR: &str = "{Dense,Compressed}";
const DCSR: &str = "{Compressed,Compressed}";
const COO: &str = "{Compressed,Singleton}";
const CSF: &str = "{Dense,Compressed,Compressed}";
const DCSF: &str = "{Compressed,Compressed,Compressed}";
const COO3: &str = "{Compressed,Singleton,Singleton}";

/// The table-key name of a leaf kernel (every variant, blessed or not —
/// also the `kernel` field of `kernel-dispatch` trace events).
pub fn kernel_name(kernel: &LeafKernel) -> &'static str {
    match kernel {
        LeafKernel::SpMv => "SpMv",
        LeafKernel::SpMm { .. } => "SpMm",
        LeafKernel::SpAdd3 => "SpAdd3",
        LeafKernel::Sddmm { .. } => "Sddmm",
        LeafKernel::SpTtv => "SpTtv",
        LeafKernel::SpMttkrp { .. } => "SpMttkrp",
        LeafKernel::Generic => "Generic",
    }
}

/// Look up the specialized implementation of `(kernel, levels_signature)`,
/// where `levels_signature` is `Format::levels_signature()` of the driver
/// tensor's declared format. `None`: not blessed, use the generic walker.
pub fn lookup(kernel: &LeafKernel, levels_signature: &str) -> Option<SpecializedKernel> {
    let name = kernel_name(kernel);
    TABLE
        .iter()
        .find(|(k, sig, _)| *k == name && *sig == levels_signature)
        .map(|(_, _, f)| *f)
}

/// The storage signature of a tensor's *actual* levels, in the same
/// notation as `Format::levels_signature()`.
pub fn storage_signature(t: &SpTensor) -> String {
    let levels: Vec<String> = t.formats().iter().map(|l| format!("{l:?}")).collect();
    format!("{{{}}}", levels.join(","))
}

/// Resolve `(kernel, levels_signature)` against the table, verifying that
/// `driver`'s stored levels really match the declared signature — a
/// mismatch (a tensor whose data was swapped under its format) must fall
/// back to the walker rather than read the wrong arrays.
pub fn resolve(
    kernel: &LeafKernel,
    levels_signature: &str,
    driver: &SpTensor,
) -> Option<SpecializedKernel> {
    if storage_signature(driver) != levels_signature {
        return None;
    }
    lookup(kernel, levels_signature)
}

/// One run of a task's stored entries: consecutive positions `lo..` of
/// the driver's last level, with their values and last-level coordinates.
/// `row` (level 0) and, for order 3, `mid` (level 1) give each entry's
/// outer coordinates.
struct Run<'a, C> {
    row: C,
    mid: C,
    lo: usize,
    vals: &'a [f64],
    crd: &'a [i64],
    /// The run is a whole stored row under a row-keyed level 0 (order 2
    /// only), so the task's position partition makes it the row's only
    /// writer.
    owned: bool,
}

/// The outer coordinates of a run's entries: one value for the whole run
/// below a dense or compressed parent, or one stored coordinate per entry
/// in a singleton level.
trait Coord: Copy {
    /// The coordinate of the run's entry `e`.
    fn at(self, e: usize) -> usize;
    /// The end of the segment of entries from `e` on that share entry
    /// `e`'s coordinate, within a run of `len` entries.
    fn segment_end(self, e: usize, len: usize) -> usize;
}

impl Coord for usize {
    #[inline(always)]
    fn at(self, _: usize) -> usize {
        self
    }

    #[inline(always)]
    fn segment_end(self, _: usize, len: usize) -> usize {
        len
    }
}

impl Coord for &[i64] {
    #[inline(always)]
    fn at(self, e: usize) -> usize {
        self[e] as usize
    }

    #[inline(always)]
    fn segment_end(self, e: usize, len: usize) -> usize {
        (e + 1..len).find(|&x| self[x] != self[e]).unwrap_or(len)
    }
}

/// How a blessed driver layout stores level 0, and with it how the levels
/// below are reached: the one axis along which the blessed formats differ.
trait Layout {
    /// How this layout hands a run its outer coordinates.
    type Coord<'a>: Coord;

    /// Visit the runs of the order-`ORDER` driver `t` that `clamps` own,
    /// in ascending position order.
    fn runs<const ORDER: usize>(
        t: &SpTensor,
        clamps: &LevelClamps,
        f: impl FnMut(Run<'_, Self::Coord<'_>>),
    );
}

/// Dense level 0 (CSR, CSF): row `i` is position `i`.
struct DenseRows;

/// Compressed level 0 (DCSR, doubly-compressed CSF): only non-empty rows
/// are stored, and position `q` holds row `crd0[q]`.
struct CompressedRows;

/// COO: a compressed level 0 with one entry per stored value, followed by
/// singleton levels sharing its positions.
struct CooTails;

impl Layout for DenseRows {
    type Coord<'a> = usize;

    #[inline(always)]
    fn runs<const ORDER: usize>(t: &SpTensor, clamps: &LevelClamps, f: impl FnMut(Run<usize>)) {
        let rows = Rect1::new(0, t.dims()[0] as i64 - 1);
        compressed_below::<ORDER>(t, clamps, rows, true, |q| q, f)
    }
}

impl Layout for CompressedRows {
    type Coord<'a> = usize;

    #[inline(always)]
    fn runs<const ORDER: usize>(t: &SpTensor, clamps: &LevelClamps, f: impl FnMut(Run<usize>)) {
        let (pos0, crd0) = compressed(t, 0);
        compressed_below::<ORDER>(t, clamps, pos0[0], false, |q| crd0[q] as usize, f)
    }
}

/// Walk the level-0 positions `root ∩ clamp` (position `q` holds row
/// `row_of(q)`) and descend the compressed levels below them. With
/// `prefetch`, the head of the next row's data is hinted while the
/// current row streams, hiding each row block's first-line miss. Only a
/// dense level 0 asks for it: on a compressed level 0 the same hint
/// measured slower (SpMV on DCSR, about 5–10% on a 2-core x86-64 VM).
#[inline(always)]
fn compressed_below<const ORDER: usize>(
    t: &SpTensor,
    clamps: &LevelClamps,
    root: Rect1,
    prefetch: bool,
    row_of: impl Fn(usize) -> usize,
    mut f: impl FnMut(Run<usize>),
) {
    if root.is_empty() {
        return;
    }
    let (pos1, crd1) = compressed(t, 1);
    let (pos2, leaf_crd) = if ORDER == 3 {
        compressed(t, 2)
    } else {
        (&[][..], crd1)
    };
    let (vals, l1, l2) = (t.vals(), clamps.level(1), clamps.level(ORDER - 1));
    for rr in clamps.level(0).intersect_rect(root) {
        for q0 in rr.lo as usize..=rr.hi as usize {
            if prefetch && q0 < rr.hi as usize {
                let next = pos1[q0 + 1];
                if !next.is_empty() {
                    prefetch_read(crd1, next.lo as usize);
                    if ORDER == 2 {
                        prefetch_read(vals, next.lo as usize);
                    }
                }
            }
            let range = pos1[q0];
            if range.is_empty() {
                continue;
            }
            let row = row_of(q0);
            let run = |r: Rect1, mid, owned| {
                let (lo, hi) = (r.lo as usize, r.hi as usize);
                let (vals, crd) = (&vals[lo..=hi], &leaf_crd[lo..=hi]);
                Run {
                    row,
                    mid,
                    lo,
                    vals,
                    crd,
                    owned,
                }
            };
            if ORDER == 2 {
                // A clamp covering the whole row yields exactly one rect.
                let mut it = l1.intersect_rect(range);
                match it.next() {
                    Some(first) if first == range => f(run(range, 0, true)),
                    Some(first) => {
                        for r in std::iter::once(first).chain(it) {
                            f(run(r, 0, false));
                        }
                    }
                    None => {}
                }
                continue;
            }
            for fr in l1.intersect_rect(range) {
                for q1 in fr.lo as usize..=fr.hi as usize {
                    let leaves = pos2[q1];
                    if leaves.is_empty() {
                        continue;
                    }
                    for r in l2.intersect_rect(leaves) {
                        f(run(r, crd1[q1] as usize, false));
                    }
                }
            }
        }
    }
}

impl Layout for CooTails {
    type Coord<'a> = &'a [i64];

    /// The singleton levels share level 0's positions, so every level's
    /// clamp composes into one set intersected with the root range up
    /// front: one flat pass, one run per owned rect, with per-entry outer
    /// coordinates. A COO run is never `owned`: a row may continue in
    /// another color's positions.
    #[inline(always)]
    fn runs<const ORDER: usize>(
        t: &SpTensor,
        clamps: &LevelClamps,
        mut f: impl FnMut(Run<&[i64]>),
    ) {
        let (pos0, rows) = compressed(t, 0);
        let root = pos0[0];
        if root.is_empty() {
            return;
        }
        let mids = if ORDER == 3 { singleton(t, 1) } else { rows };
        let (crd, vals) = (singleton(t, ORDER - 1), t.vals());
        let mut owned = clamps.level(0).intersect(clamps.level(1));
        if ORDER == 3 {
            owned = owned.intersect(clamps.level(2));
        }
        for r in owned.intersect_rect(root) {
            let (lo, hi) = (r.lo as usize, r.hi as usize);
            f(Run {
                row: &rows[lo..=hi],
                mid: &mids[lo..=hi],
                lo,
                vals: &vals[lo..=hi],
                crd: &crd[lo..=hi],
                owned: false,
            });
        }
    }
}

/// `pos`/`crd` views of a compressed level. Callers are blessed-dispatch
/// paths: [`resolve`] has already verified the driver's level kinds.
fn compressed(t: &SpTensor, level: usize) -> (&[Rect1], &[i64]) {
    match t.level(level) {
        Level::Compressed { pos, crd } => (pos, crd),
        _ => unreachable!("blessed dispatch: level {level} is compressed"),
    }
}

/// `crd` view of a singleton level (see [`compressed`]).
fn singleton(t: &SpTensor, level: usize) -> &[i64] {
    match t.level(level) {
        Level::Singleton { crd } => crd,
        _ => unreachable!("blessed dispatch: level {level} is singleton"),
    }
}

/// Hint the prefetcher at `slice[index]`. A cache hint never changes a
/// result. No-op off x86-64.
#[inline(always)]
fn prefetch_read<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < slice.len() {
        // SAFETY: `_mm_prefetch` is a pure cache hint, valid for any
        // address; the pointer is in-bounds by the check above.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                slice.as_ptr().add(index) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_keys_are_unique() {
        for (i, (k1, s1, _)) in TABLE.iter().enumerate() {
            for (k2, s2, _) in &TABLE[i + 1..] {
                assert!(!(k1 == k2 && s1 == s2), "duplicate table key {k1} {s1}");
            }
        }
    }

    #[test]
    fn lookup_hits_blessed_and_misses_unblessed() {
        assert!(lookup(&LeafKernel::SpMv, "{Dense,Compressed}").is_some());
        assert!(lookup(&LeafKernel::SpMm { jdim: 4 }, "{Compressed,Singleton}").is_some());
        assert!(lookup(
            &LeafKernel::SpMttkrp { ldim: 4 },
            "{Dense,Compressed,Compressed}"
        )
        .is_some());
        // SpTtv / SpAdd3 / Generic are never blessed.
        assert!(lookup(&LeafKernel::SpTtv, "{Dense,Compressed,Compressed}").is_none());
        assert!(lookup(&LeafKernel::SpAdd3, "{Dense,Compressed}").is_none());
        assert!(lookup(&LeafKernel::Generic, "{Dense,Compressed}").is_none());
        // Unblessed layouts miss.
        assert!(lookup(&LeafKernel::SpMv, "{Dense,Dense}").is_none());
    }

    #[test]
    fn resolve_rejects_signature_data_mismatch() {
        // A CSR tensor resolved under a COO signature must fall back, not
        // dispatch a kernel that would read the wrong level arrays.
        let t = spdistal_sparse::generate::uniform(8, 8, 20, 1);
        assert_eq!(storage_signature(&t), "{Dense,Compressed}");
        assert!(resolve(&LeafKernel::SpMv, "{Compressed,Singleton}", &t).is_none());
        assert!(resolve(&LeafKernel::SpMv, "{Dense,Compressed}", &t).is_some());
    }
}
