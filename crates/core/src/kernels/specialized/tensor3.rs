//! The SpMTTKRP kernel body, written once, generic over the driver's
//! [`Layout`] and monomorphized per blessed order-3 signature: CSF
//! `{Dense,Compressed,Compressed}`, doubly-compressed CSF
//! `{Compressed,Compressed,Compressed}`, and COO
//! `{Compressed,Singleton,Singleton}`.
//!
//! `A(i,l) += B(i,j,k) * C(j,l) * D(k,l)` with dense row-major factors of
//! width `ldim`. Each entry's `i` and `j` come through [`Coord`]: one
//! value per run below CSF's compressed levels (so the `C` row slice is
//! loop-invariant), a stored coordinate per entry in COO's singleton
//! levels. Per-entry factor-row updates keep the accumulation order
//! exactly the generic walker's, and op accounting is `2 * ldim` per
//! stored entry, as in [`crate::kernels::tensor3::spmttkrp_color`].

use spdistal_sparse::SpTensor;

use super::{Coord, Layout};
use crate::kernels::{KernelSpan, OutVals};
use crate::level_funcs::{LevelClamps, TensorPartition};

/// SpMTTKRP: `A(i,l) += B(i,j,k) * C(j,l) * D(k,l)`.
#[allow(clippy::too_many_arguments)]
pub(super) fn spmttkrp<L: Layout>(
    b: &SpTensor,
    part: &TensorPartition,
    color: usize,
    span: Option<&KernelSpan>,
    c: &[f64],
    d: &[f64],
    ldim: usize,
    out: &OutVals,
) -> f64 {
    let mut ops = 0u64;
    L::runs::<3>(b, &LevelClamps::new(part, color, span), |r| {
        for (e, (v, &k)) in r.vals.iter().zip(r.crd).enumerate() {
            let (j, k) = (r.mid.at(e), k as usize);
            out.add_scaled_product(
                r.row.at(e) * ldim,
                *v,
                &c[j * ldim..(j + 1) * ldim],
                &d[k * ldim..(k + 1) * ldim],
            );
        }
        ops += 2 * ldim as u64 * r.vals.len() as u64;
    });
    ops as f64
}
