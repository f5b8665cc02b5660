//! # flows-pup — the PUP (Pack/UnPack) framework
//!
//! The paper (§3.1.1) migrates heap state of object-oriented applications
//! with Charm++'s PUP framework: one user-written traversal of an object's
//! fields serves three operations — *sizing* (how many bytes will this
//! object occupy?), *packing* (serialize into a buffer) and *unpacking*
//! (reconstruct from a buffer). This crate is a faithful Rust rendition:
//!
//! ```
//! use flows_pup::{Pup, Puper, pup_fields, to_bytes, from_bytes};
//!
//! #[derive(Default, Debug, PartialEq)]
//! struct Particle { x: f64, y: f64, charge: i32, tags: Vec<u32> }
//! pup_fields!(Particle { x, y, charge, tags });
//!
//! let mut p = Particle { x: 1.0, y: -2.0, charge: 3, tags: vec![7, 8] };
//! let bytes = to_bytes(&mut p);
//! let q: Particle = from_bytes(&bytes).unwrap();
//! assert_eq!(p, q);
//! ```
//!
//! The same `pup` traversal drives all three modes, so sizing, packing and
//! unpacking can never drift apart — the property the Charm++ design is
//! built around.

#![warn(missing_docs)]
// The release profiles build without LTO, so a public fn of this crate
// that a generic in another crate calls once per element (`<u8 as
// Pup>::pup` inside `Vec<u8>`'s loop) stays a call unless it is
// `#[inline]`. The gate runs clippy at `-D warnings`.
#![warn(clippy::missing_inline_in_public_items)]

mod error;
mod impls;
mod puper;

pub use error::PupError;
pub use puper::{Pup, Puper};

/// Compute the packed size of `v` in bytes.
#[inline]
pub fn packed_size<T: Pup + ?Sized>(v: &mut T) -> usize {
    let mut p = Puper::sizer();
    v.pup(&mut p);
    p.size()
}

/// Pack `v` into a fresh byte vector.
///
/// `v` is `&mut` because the same traversal serves packing and unpacking;
/// packing never mutates the value.
#[inline]
pub fn to_bytes<T: Pup + ?Sized>(v: &mut T) -> Vec<u8> {
    let mut out = Vec::with_capacity(packed_size(v));
    let mut p = Puper::packer(&mut out);
    v.pup(&mut p);
    out
}

/// Pack `v` onto the end of `out`, returning the number of bytes appended.
#[inline]
pub fn pack_into<T: Pup + ?Sized>(v: &mut T, out: &mut Vec<u8>) -> usize {
    let before = out.len();
    let mut p = Puper::packer(out);
    v.pup(&mut p);
    out.len() - before
}

/// Unpack a `T` from `bytes`, requiring every byte to be consumed.
#[inline]
pub fn from_bytes<T: Pup + Default>(bytes: &[u8]) -> Result<T, PupError> {
    let mut v = T::default();
    let mut p = Puper::unpacker(bytes);
    v.pup(&mut p);
    p.finish_exact()?;
    Ok(v)
}

/// Unpack a `T` from the front of `bytes`, returning the value and the
/// number of bytes consumed (for streams of packed records).
#[inline]
pub fn from_bytes_prefix<T: Pup + Default>(bytes: &[u8]) -> Result<(T, usize), PupError> {
    let mut v = T::default();
    let mut p = Puper::unpacker(bytes);
    v.pup(&mut p);
    let used = p.finish()?;
    Ok((v, used))
}

/// The one fuzz of a decoder of bytes that cross a trust boundary, shared
/// by every crate's table of decoders (one call per table line). `decode`
/// returns `None` for refused bytes, else the re-encoding of what it
/// accepted and the number of bytes that consumed. `valid` must be
/// accepted whole and re-encode to itself; then every truncation of it,
/// it with one byte appended, every single-byte smash of it (each
/// position, each nonzero XOR) and seeded random byte strings must each
/// be refused or re-encode exactly to the bytes accepted. Deterministic:
/// a failure names the line and the case and repeats on every run.
/// Panics on the first violation, and on a panic in `decode`.
#[doc(hidden)]
#[inline]
pub fn check_decoder(name: &str, valid: &[u8], decode: impl Fn(&[u8]) -> Option<(Vec<u8>, usize)>) {
    let holds = |bytes: &[u8]| {
        let run = || decode(bytes);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(None) => true,
            Ok(Some((again, used))) => bytes.get(..used) == Some(&again[..]),
            Err(_) => false,
        }
    };
    let whole = decode(valid);
    assert!(
        whole == Some((valid.to_vec(), valid.len())),
        "{name}: the valid wire is not accepted whole as itself"
    );
    for n in 0..valid.len() {
        assert!(holds(&valid[..n]), "{name}: truncation to {n} bytes");
    }
    assert!(holds(&[valid, &[0]].concat()), "{name}: the valid wire plus one byte");
    let mut bytes = valid.to_vec();
    for i in 0..valid.len() {
        for x in 1..=u8::MAX {
            bytes[i] = valid[i] ^ x;
            assert!(holds(&bytes), "{name}: byte {i} smashed with XOR {x:#04x}");
        }
        bytes[i] = valid[i];
    }
    // splitmix64: a fixed seed, so every run fuzzes the same strings.
    let mut state = 0x5EED_F10E_u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for case in 0..256 {
        let len = next() as usize % (2 * valid.len() + 64);
        let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        assert!(holds(&bytes), "{name}: random case {case} ({len} bytes)");
    }
}

/// Implement [`Pup`] for a struct by pupping the listed fields in order.
///
/// ```
/// use flows_pup::pup_fields;
/// #[derive(Default)]
/// struct S { a: u32, b: String }
/// pup_fields!(S { a, b });
/// ```
#[macro_export]
macro_rules! pup_fields {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::Pup for $ty {
            fn pup(&mut self, p: &mut $crate::Puper) {
                $( self.$field.pup(p); )*
            }
        }
    };
}
