//! Finite-field arithmetic for erasure coding and secret sharing.
//!
//! This crate provides the algebraic substrate used throughout the `aeon`
//! workspace:
//!
//! * [`Gf256`] — the field GF(2^8) with the AES/Rijndael-compatible reducing
//!   polynomial `x^8 + x^4 + x^3 + x + 1` (0x11B). Element-per-byte makes it
//!   the natural field for byte-oriented Reed–Solomon codes and Shamir
//!   secret sharing.
//! * [`Gf16`] — the field GF(2^16) with reducing polynomial
//!   `x^16 + x^12 + x^3 + x + 1` (0x1100B). Its 65 536 evaluation points
//!   make it the field of choice for *packed* secret sharing, where a single
//!   polynomial hides many secrets and therefore needs many distinct
//!   evaluation points.
//! * [`poly`] — polynomial evaluation and Lagrange interpolation over any
//!   [`Field`].
//! * [`matrix`] — dense matrices over a field: Vandermonde and Cauchy
//!   constructions, Gaussian elimination, inversion. These drive systematic
//!   Reed–Solomon encoding and decoding.
//! * [`slice`](mod@slice) — bulk scalar × vector kernels (`mul_slice`,
//!   `mul_add_slice`) and the fused matrix-row kernels (`mul_add_rows`,
//!   its write-first twin `mul_rows`, `gf16_mul_add_rows`) with
//!   per-scalar product tables, the
//!   branch-free inner loops of erasure encoding and share evaluation.
//! * [`kernel`] — runtime dispatch for the GF(2^8) slice kernels and the
//!   GF(2^16) multiply-accumulate: portable scalar/SWAR tiers plus
//!   SSSE3/AVX2 `PSHUFB` tiers selected once per process via CPU-feature
//!   detection (overridable with `AEON_FORCE_KERNEL`).
//!
//! # Design notes
//!
//! Both concrete fields use log/exp table arithmetic. The tables are built
//! at compile time by `const` evaluation, so there is no runtime
//! initialization and lookups are branch-free except for the zero check in
//! multiplication.
//!
//! # Examples
//!
//! ```
//! use aeon_gf::{Field, Gf256};
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! // Multiplication in GF(2^8) with the AES polynomial.
//! assert_eq!(a * b, Gf256::ONE);
//! assert_eq!(a.inverse().unwrap(), b);
//! ```

// `deny` rather than `forbid`: the SSSE3/AVX2 intrinsic tier in
// `kernel::simd` is the one audited exception (module-level `allow`);
// everything else in the crate remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod field;
mod gf16;
mod gf256;
pub mod kernel;
pub mod matrix;
pub mod poly;
pub mod slice;

pub use field::Field;
pub use gf16::Gf16;
pub use gf256::{generator as gf256_generator, Gf256};
pub use kernel::{Kernel, KernelTier};
pub use matrix::Matrix;
