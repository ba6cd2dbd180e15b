//! Error-coding substrate for the Killi reproduction.
//!
//! This crate provides the bit-accurate error detection and correction codes
//! the paper builds on:
//!
//! - [`bits::Line512`] — the 512-bit cache-line payload type,
//! - [`parity`] — segmented interleaved parity (16-segment training mode and
//!   4-segment stable mode, §4.1),
//! - [`secded`] — SECDED(523, 512) extended Hamming code (11 checkbits),
//! - [`bch`] — DEC-TED shortened BCH over GF(2^10) (21 checkbits, §5.2),
//!   encoded a byte at a time from lookup tables, with a closed-form
//!   two-error locator,
//! - [`bch_t`] — generic t-error-correcting BCH with Berlekamp-Massey
//!   decoding (functional TECQED and 6EC7ED, Table 4),
//! - [`olsc`] — Orthogonal Latin Square codes with majority-logic decoding
//!   (MS-ECC and the low-Vmin Killi variant, §5.5), computed as
//!   bit-matrix transforms of whole 64-bit words with the checkbits
//!   packed into the four words
//!   ([`olsc::OlscCheck`]) an ECC-cache payload stores,
//! - [`gf1024`] — the GF(2^10) field arithmetic behind the BCH code.
//!
//! All codecs operate on *received* (possibly corrupted) data and checkbits,
//! and expose both the raw syndrome observables (which Killi's Table 2 state
//! machine branches on) and interpreted correct/detect verdicts.
//!
//! The OLSC and DEC-TED kernels do not allocate and build their tables once
//! per process. Test builds carry scalar reference codecs (cell-by-cell OLSC
//! with one `bool` per checkbit, the bit-serial DEC-TED encoder, the Chien
//! search) that the kernels must match bit for bit.
//!
//! # Example
//!
//! ```
//! use killi_ecc::bits::Line512;
//! use killi_ecc::secded::{secded, SecdedDecode};
//!
//! let data = Line512::from_seed(1);
//! let check = secded().encode(&data);
//!
//! let mut received = data;
//! received.flip_bit(42); // a low-voltage bit failure
//!
//! match secded().decode(&received, check) {
//!     SecdedDecode::CorrectedData { bit } => assert_eq!(bit, 42),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```

pub mod bch;
pub mod bch_t;
pub mod bits;
pub mod gf1024;
pub mod olsc;
pub mod parity;
#[cfg(test)]
mod reference;
pub mod secded;

pub use bits::Line512;
