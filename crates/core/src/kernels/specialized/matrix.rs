//! The matrix kernel bodies — SpMV, SpMM and SDDMM — each written once,
//! generic over the driver's [`Layout`] and monomorphized per blessed
//! `{Dense,Compressed}` (CSR), `{Compressed,Compressed}` (DCSR) and
//! `{Compressed,Singleton}` (COO) signature.
//!
//! A body sees only runs: consecutive stored entries of the task, as plain
//! `vals`/`crd` slices, plus each entry's row through [`Coord`] — one row
//! for a whole CSR/DCSR run, a stored coordinate per entry for COO. The
//! layout decides which positions the task owns and in what order they
//! come; the body decides what to compute per entry. Entry visit order,
//! per-element accumulation order and integer op counts are exactly the
//! generic walker's (the bit-identity contract of the module docs).
//!
//! SpMV folds each `owned` run — a CSR/DCSR row the task's clamp covers
//! whole — into a local accumulator before one `out[i] +=`. That is bitwise
//! identical to the walker's per-entry adds: position partitions are
//! disjoint, so the task is the slot's only writer, `out[i]` is `+0.0`, and
//! both paths compute the same left fold — and a fold seeded with `+0.0`
//! can never produce `-0.0`, so the final `+=` through memory cannot flip a
//! sign bit. A row cut mid-way by a non-zero split, and every COO run (the
//! row may continue in another color's positions), may share `out[i]` with
//! another color, where `(P + x1) + x2` and `P + (x1 + x2)` round
//! differently — those keep the walker's per-entry read-modify-write order.

use spdistal_sparse::SpTensor;

use super::{prefetch_read, Coord, Layout};
use crate::kernels::{KernelSpan, OutVals};
use crate::level_funcs::{LevelClamps, TensorPartition};

/// SpMV: `a(i) += B(i,j) * c(j)`.
pub(super) fn spmv<L: Layout>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    out: &OutVals,
) -> f64 {
    let mut ops = 0u64;
    L::runs::<2>(b, &LevelClamps::new(part, color, span), |r| {
        if r.owned {
            let mut acc = 0.0;
            for (v, &j) in r.vals.iter().zip(r.crd) {
                acc += v * c[j as usize];
            }
            out.add(r.row.at(0), acc);
        } else {
            for (e, (v, &j)) in r.vals.iter().zip(r.crd).enumerate() {
                out.add(r.row.at(e), v * c[j as usize]);
            }
        }
        ops += r.vals.len() as u64;
    });
    ops as f64
}

/// How many stored entries ahead of the current one to prefetch the
/// dense `C` row for (far enough to beat a memory round-trip, near
/// enough to still be resident when the loop arrives).
const PF_DIST: usize = 4;

/// `f64`s per 64-byte cache line, the stride between prefetch hints.
const FLOATS_PER_LINE: usize = 8;

/// Stored entries folded per unrolled SpMM step (see [`spmm_row`]).
const CHUNK: usize = 4;

/// SpMM: `A(i,j) += B(i,k) * C(k,j)`, dense row-major `C` of width `jdim`,
/// one [`spmm_row`] per run segment sharing a row (the whole run, unless
/// COO) — through the AVX-widened recompile when the CPU has it.
pub(super) fn spmm<L: Layout>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    jdim: usize,
    out: &OutVals,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    let avx = std::arch::is_x86_feature_detected!("avx");
    let mut ops = 0u64;
    L::runs::<2>(b, &LevelClamps::new(part, color, span), |r| {
        let n = r.vals.len();
        let mut e = 0;
        while e < n {
            let end = r.row.segment_end(e, n);
            let seg = (r.row.at(e) * jdim, &r.vals[e..end], &r.crd[e..end]);
            #[cfg(target_arch = "x86_64")]
            if avx {
                // SAFETY: `avx` was detected at runtime.
                unsafe { spmm_row_avx(seg, c, jdim, out) }
            } else {
                spmm_row(seg, c, jdim, out)
            }
            #[cfg(not(target_arch = "x86_64"))]
            spmm_row(seg, c, jdim, out);
            e = end;
        }
        ops += jdim as u64 * n as u64;
    });
    ops as f64
}

/// The `(output row start, values, columns)` of stored entries sharing a
/// row.
type RowSegment<'a> = (usize, &'a [f64], &'a [i64]);

/// Apply one row segment to its output row, entry by entry in position
/// order —
/// the walker's exact update sequence, so bit-identity holds
/// unconditionally. The row is borrowed once through
/// [`OutVals::row_mut`]: one bounds check and a noalias `&mut` row the
/// compiler can keep vectorized, instead of a checked raw-pointer update
/// per entry. The stored column indices are effectively random, so each
/// entry's dense `C` row is a likely cache miss — the loop issues a
/// prefetch `PF_DIST` entries ahead to overlap those misses with the
/// current work.
///
/// `#[inline(always)]` so [`spmm_row_avx`] recompiles this exact body
/// under its widened target features.
#[inline(always)]
fn spmm_row((row_start, vs, ks): RowSegment, c: &[f64], jdim: usize, out: &OutVals) {
    // SAFETY: the dependence graph serializes tasks whose output rows
    // overlap and concurrent tasks touch disjoint elements (the OutVals
    // contract), so this task is the row's only accessor.
    let out_row = unsafe { out.row_mut(row_start, jdim) };
    // Four entries per step: `out[j] += a; out[j] += b; ...` is the
    // element-wise fold `(((out[j] + a) + b) + c) + d`, so keeping `out[j]`
    // in a register across the chunk preserves the walker's per-element op
    // order exactly while quartering the output row's load/store traffic.
    let mut idx = 0;
    while idx + CHUNK <= vs.len() {
        if let Some(&knext) = ks.get(idx + PF_DIST) {
            // A dense row spans several cache lines (jdim * 8 bytes);
            // hint every line, not just the first.
            let base = knext as usize * jdim;
            let mut off = 0;
            while off < jdim {
                prefetch_read(c, base + off);
                off += FLOATS_PER_LINE;
            }
        }
        let (v0, v1, v2, v3) = (vs[idx], vs[idx + 1], vs[idx + 2], vs[idx + 3]);
        let k0 = ks[idx] as usize * jdim;
        let k1 = ks[idx + 1] as usize * jdim;
        let k2 = ks[idx + 2] as usize * jdim;
        let k3 = ks[idx + 3] as usize * jdim;
        let c0 = &c[k0..k0 + jdim];
        let c1 = &c[k1..k1 + jdim];
        let c2 = &c[k2..k2 + jdim];
        let c3 = &c[k3..k3 + jdim];
        for j in 0..jdim {
            let mut t = out_row[j];
            t += v0 * c0[j];
            t += v1 * c1[j];
            t += v2 * c2[j];
            t += v3 * c3[j];
            out_row[j] = t;
        }
        idx += CHUNK;
    }
    for (v, &k) in vs[idx..].iter().zip(&ks[idx..]) {
        let k = k as usize;
        let crow = &c[k * jdim..(k + 1) * jdim];
        for (a, cj) in out_row.iter_mut().zip(crow) {
            *a += v * cj;
        }
    }
}

/// [`spmm_row`] recompiled with 256-bit AVX enabled (the baseline x86-64
/// target is SSE2, two `f64` lanes). The row update is purely
/// element-wise — each `out[j] += v * c[j]` is an independent
/// mul-then-add with no cross-lane reduction and no FMA contraction
/// (`fma` stays disabled) — so widening the lanes changes which elements
/// share an instruction, never any element's op sequence: results stay
/// bit-identical to the scalar walker.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn spmm_row_avx(seg: RowSegment, c: &[f64], jdim: usize, out: &OutVals) {
    spmm_row(seg, c, jdim, out)
}

/// SDDMM: `A(i,j) = B(i,j) * (C(i,:) · D(:,j))`, position-aligned output
/// values.
#[allow(clippy::too_many_arguments)]
pub(super) fn sddmm<L: Layout>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    d: &[f64],
    kdim: usize,
    jdim: usize,
    out_vals: &OutVals,
) -> f64 {
    let mut ops = 0u64;
    L::runs::<2>(b, &LevelClamps::new(part, color, span), |r| {
        for (e, (v, &j)) in r.vals.iter().zip(r.crd).enumerate() {
            let i = r.row.at(e);
            let crow = &c[i * kdim..(i + 1) * kdim];
            let mut dot = 0.0;
            for (k, ck) in crow.iter().enumerate() {
                dot += ck * d[k * jdim + j as usize];
            }
            out_vals.set(r.lo + e, v * dot);
        }
        ops += kdim as u64 * r.vals.len() as u64;
    });
    ops as f64
}
