// Pins pup's fixed-width field path on random sequences of mixed-width
// primitives: the packed bytes are each field's little-endian bytes end
// to end, the sizing pass agrees with them, and a cut at every prefix
// fails the way a byte-run copy of the same layout does —
// `Truncated { needed, at }` naming the first field that does not fit,
// that field and every later one zero-filled, the first error kept.
// Plain `//` comments: the root's `tests/pup_primitive_path_smoke.rs`
// `include!`s this file.

use flows_pup::{packed_size, to_bytes, Pup, PupError, Puper};
use proptest::prelude::*;

/// One primitive field; every type `pup_le_prim!` and its wrappers cover.
#[derive(Debug, Clone)]
enum Prim {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    U128(u128),
    I8(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    I128(i128),
    F32(f32),
    F64(f64),
    Usize(usize),
    Isize(isize),
    Bool(bool),
    Char(char),
}

impl Prim {
    fn new(kind: u8, a: u64, b: u64) -> Prim {
        let wide = (a as u128) << 64 | b as u128;
        match kind % 16 {
            0 => Prim::U8(a as u8),
            1 => Prim::U16(a as u16),
            2 => Prim::U32(a as u32),
            3 => Prim::U64(a),
            4 => Prim::U128(wide),
            5 => Prim::I8(a as i8),
            6 => Prim::I16(a as i16),
            7 => Prim::I32(a as i32),
            8 => Prim::I64(a as i64),
            9 => Prim::I128(wide as i128),
            10 => Prim::F32(f32::from_bits(a as u32)),
            11 => Prim::F64(f64::from_bits(a)),
            12 => Prim::Usize(a as usize),
            13 => Prim::Isize(a as isize),
            14 => Prim::Bool(a & 1 == 1),
            _ => Prim::Char(char::from_u32((a % 0x11_0000) as u32).unwrap_or('\u{FFFD}')),
        }
    }

    /// The field's wire bytes, written out by hand: `usize`/`isize` as 8
    /// bytes, `bool` as one, `char` as its `u32` scalar.
    fn le_bytes(&self) -> Vec<u8> {
        match *self {
            Prim::U8(v) => v.to_le_bytes().to_vec(),
            Prim::U16(v) => v.to_le_bytes().to_vec(),
            Prim::U32(v) => v.to_le_bytes().to_vec(),
            Prim::U64(v) => v.to_le_bytes().to_vec(),
            Prim::U128(v) => v.to_le_bytes().to_vec(),
            Prim::I8(v) => v.to_le_bytes().to_vec(),
            Prim::I16(v) => v.to_le_bytes().to_vec(),
            Prim::I32(v) => v.to_le_bytes().to_vec(),
            Prim::I64(v) => v.to_le_bytes().to_vec(),
            Prim::I128(v) => v.to_le_bytes().to_vec(),
            Prim::F32(v) => v.to_le_bytes().to_vec(),
            Prim::F64(v) => v.to_le_bytes().to_vec(),
            Prim::Usize(v) => (v as u64).to_le_bytes().to_vec(),
            Prim::Isize(v) => (v as i64).to_le_bytes().to_vec(),
            Prim::Bool(v) => vec![v as u8],
            Prim::Char(v) => (v as u32).to_le_bytes().to_vec(),
        }
    }
}

impl Pup for Prim {
    fn pup(&mut self, p: &mut Puper) {
        match self {
            Prim::U8(v) => v.pup(p),
            Prim::U16(v) => v.pup(p),
            Prim::U32(v) => v.pup(p),
            Prim::U64(v) => v.pup(p),
            Prim::U128(v) => v.pup(p),
            Prim::I8(v) => v.pup(p),
            Prim::I16(v) => v.pup(p),
            Prim::I32(v) => v.pup(p),
            Prim::I64(v) => v.pup(p),
            Prim::I128(v) => v.pup(p),
            Prim::F32(v) => v.pup(p),
            Prim::F64(v) => v.pup(p),
            Prim::Usize(v) => v.pup(p),
            Prim::Isize(v) => v.pup(p),
            Prim::Bool(v) => v.pup(p),
            Prim::Char(v) => v.pup(p),
        }
    }
}

/// The fields back to back, with no length prefix: the layout is exactly
/// the concatenation of their widths.
struct Fields(Vec<Prim>);

impl Pup for Fields {
    fn pup(&mut self, p: &mut Puper) {
        for f in self.0.iter_mut() {
            f.pup(p);
        }
    }
}

fn arb_fields() -> impl Strategy<Value = Vec<Prim>> {
    proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..40)
        .prop_map(|v| v.into_iter().map(|(k, a, b)| Prim::new(k, a, b)).collect())
}

proptest! {
    #[test]
    fn packed_bytes_are_the_fields_le_bytes(fields in arb_fields()) {
        let expected: Vec<u8> = fields.iter().flat_map(Prim::le_bytes).collect();
        let mut src = Fields(fields);
        let packed = to_bytes(&mut src);
        prop_assert_eq!(&packed, &expected);
        prop_assert_eq!(packed_size(&mut src), packed.len());
    }

    #[test]
    fn every_cut_truncates_like_a_byte_run(fields in arb_fields()) {
        let widths: Vec<usize> = fields.iter().map(|f| f.le_bytes().len()).collect();
        let packed = to_bytes(&mut Fields(fields.clone()));
        for cut in 0..=packed.len() {
            // Unpack over the original values, so a field left alone
            // would show through where zero-fill is owed.
            let mut dst = Fields(fields.clone());
            let mut p = Puper::unpacker(&packed[..cut]);
            dst.pup(&mut p);
            let got = p.finish();

            let mut at = 0;
            let mut first_short = None;
            for (f, (&w, out)) in fields.iter().zip(widths.iter().zip(&dst.0)) {
                let want = if first_short.is_none() && at + w <= cut {
                    f.le_bytes()
                } else {
                    first_short.get_or_insert((w, at));
                    vec![0; w]
                };
                prop_assert_eq!(out.le_bytes(), want, "cut {} field at {}", cut, at);
                at += w;
            }
            match first_short {
                Some((needed, at)) => {
                    prop_assert_eq!(got, Err(PupError::Truncated { needed, at }), "cut {}", cut)
                }
                None => prop_assert_eq!(got, Ok(cut)),
            }
        }
    }
}
