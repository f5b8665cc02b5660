// Pins pup's fixed-width field path on random sequences of mixed-width
// primitives: the packed bytes are each field's little-endian bytes end
// to end, the sizing pass agrees with them, and a cut at every prefix
// fails the way a byte-run copy of the same layout does —
// `Truncated { needed, at }` naming the first field that does not fit,
// that field and every later one zero-filled, the first error kept.
// The same three pins hold for containers of them: `Vec`s of every
// primitive (byte runs of up to 4 KiB) and `String`s.
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

// Containers: the same pins for length-prefixed runs. A `Vec` of any
// primitive packs as its 8-byte length then each element's bytes; a
// `String` as its length then its UTF-8 bytes. Unpacking a `Vec` reads
// element by element and pushes nothing after the first error; a
// `String` takes its whole run at once.

/// A primitive type as a `Vec` element, tied to its `Prim` model.
trait Elem: Pup + Default + Clone + std::fmt::Debug + 'static {
    fn new(a: u64, b: u64) -> Self;
    fn prim(&self) -> Prim;
}

macro_rules! elem {
    ($($t:ty: $var:ident = $kind:expr),* $(,)?) => {$(
        impl Elem for $t {
            fn new(a: u64, b: u64) -> $t {
                match Prim::new($kind, a, b) {
                    Prim::$var(v) => v,
                    _ => unreachable!(),
                }
            }
            fn prim(&self) -> Prim {
                Prim::$var(*self)
            }
        }
    )*};
}

elem!(
    u8: U8 = 0, u16: U16 = 1, u32: U32 = 2, u64: U64 = 3, u128: U128 = 4,
    i8: I8 = 5, i16: I16 = 6, i32: I32 = 7, i64: I64 = 8, i128: I128 = 9,
    f32: F32 = 10, f64: F64 = 11, usize: Usize = 12, isize: Isize = 13,
    bool: Bool = 14, char: Char = 15,
);

/// One field of a mixed layout, with its wire model written by hand.
trait Field: std::fmt::Debug {
    fn pup_field(&mut self, p: &mut Puper);
    fn dup(&self) -> Box<dyn Field>;
    /// The packed bytes, from the field's value alone.
    fn wire(&self) -> Vec<u8>;
    /// The widths unpacking reads, in order: a primitive's own; a run's
    /// 8-byte prefix, then each element's (a `Vec`) or the whole byte
    /// run at once (a `String`).
    fn reads(&self) -> Vec<usize>;
    /// The wire of what unpacking leaves when only the first `ok` reads
    /// fit (`ok < reads().len()`), given the field's full `wire`: a
    /// primitive zero-filled; a `Vec` holding the elements that fit and
    /// one zero-filled element; a `String`, or a run whose prefix did not
    /// fit, empty.
    fn cut_wire(&self, ok: usize, wire: &[u8]) -> Vec<u8>;
}

fn prefixed(len: usize, body: &[u8]) -> Vec<u8> {
    let mut w = (len as u64).to_le_bytes().to_vec();
    w.extend_from_slice(body);
    w
}

impl Field for Prim {
    fn pup_field(&mut self, p: &mut Puper) {
        self.pup(p)
    }
    fn dup(&self) -> Box<dyn Field> {
        Box::new(self.clone())
    }
    fn wire(&self) -> Vec<u8> {
        self.le_bytes()
    }
    fn reads(&self) -> Vec<usize> {
        vec![self.le_bytes().len()]
    }
    fn cut_wire(&self, _ok: usize, wire: &[u8]) -> Vec<u8> {
        vec![0; wire.len()]
    }
}

impl<T: Elem> Field for Vec<T> {
    fn pup_field(&mut self, p: &mut Puper) {
        self.pup(p)
    }
    fn dup(&self) -> Box<dyn Field> {
        Box::new(self.clone())
    }
    fn wire(&self) -> Vec<u8> {
        let body: Vec<u8> = self.iter().flat_map(|e| e.prim().le_bytes()).collect();
        prefixed(self.len(), &body)
    }
    fn reads(&self) -> Vec<usize> {
        let w = T::default().prim().le_bytes().len();
        std::iter::once(8).chain(std::iter::repeat_n(w, self.len())).collect()
    }
    fn cut_wire(&self, ok: usize, wire: &[u8]) -> Vec<u8> {
        if ok == 0 {
            return prefixed(0, &[]);
        }
        let w = T::default().prim().le_bytes().len();
        let mut body = wire[8..8 + (ok - 1) * w].to_vec();
        body.resize(ok * w, 0);
        prefixed(ok, &body)
    }
}

impl Field for String {
    fn pup_field(&mut self, p: &mut Puper) {
        self.pup(p)
    }
    fn dup(&self) -> Box<dyn Field> {
        Box::new(self.clone())
    }
    fn wire(&self) -> Vec<u8> {
        prefixed(self.len(), self.as_bytes())
    }
    fn reads(&self) -> Vec<usize> {
        vec![8, self.len()]
    }
    fn cut_wire(&self, _ok: usize, _wire: &[u8]) -> Vec<u8> {
        prefixed(0, &[])
    }
}

/// Splitmix64: element values from one seed per run.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_of<T: Elem>(n: u64, seed: u64) -> Box<dyn Field> {
    let v: Vec<T> = (0..n).map(|i| T::new(mix(seed ^ i), mix(seed.wrapping_add(i)))).collect();
    Box::new(v)
}

/// A `Vec` of the primitive type `kind` names (`Prim::new`'s numbering).
fn vec_of(kind: u8, n: u64, seed: u64) -> Box<dyn Field> {
    match kind % 16 {
        0 => run_of::<u8>(n, seed),
        1 => run_of::<u16>(n, seed),
        2 => run_of::<u32>(n, seed),
        3 => run_of::<u64>(n, seed),
        4 => run_of::<u128>(n, seed),
        5 => run_of::<i8>(n, seed),
        6 => run_of::<i16>(n, seed),
        7 => run_of::<i32>(n, seed),
        8 => run_of::<i64>(n, seed),
        9 => run_of::<i128>(n, seed),
        10 => run_of::<f32>(n, seed),
        11 => run_of::<f64>(n, seed),
        12 => run_of::<usize>(n, seed),
        13 => run_of::<isize>(n, seed),
        14 => run_of::<bool>(n, seed),
        _ => run_of::<char>(n, seed),
    }
}

/// Mixed fields back to back: primitives, `Vec<u8>`s of up to 4 KiB,
/// short `Vec`s of every other primitive, and `String`s (multi-byte
/// characters included).
#[derive(Debug)]
struct Layout(Vec<Box<dyn Field>>);

impl Layout {
    fn dup(&self) -> Layout {
        Layout(self.0.iter().map(|f| f.dup()).collect())
    }
}

impl Pup for Layout {
    fn pup(&mut self, p: &mut Puper) {
        for f in self.0.iter_mut() {
            f.pup_field(p);
        }
    }
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..8).prop_map(|v| {
        Layout(
            v.into_iter()
                .map(|(k, a, b)| -> Box<dyn Field> {
                    match k % 4 {
                        0 => Box::new(Prim::new(k / 4, a, b)),
                        1 => vec_of(0, a % 4097, b),
                        2 => vec_of(k / 4, a % 33, b),
                        _ => Box::new(
                            (0..a % 48)
                                .map(|i| char::new(mix(b ^ i), 0))
                                .collect::<String>(),
                        ),
                    }
                })
                .collect(),
        )
    })
}

proptest! {
    #[test]
    fn containers_pack_as_prefix_and_elements(layout in arb_layout()) {
        let expected: Vec<u8> = layout.0.iter().flat_map(|f| f.wire()).collect();
        let mut src = layout;
        let packed = to_bytes(&mut src);
        prop_assert_eq!(&packed, &expected);
        prop_assert_eq!(packed_size(&mut src), packed.len());
    }
}

proptest! {
    // Every cut costs a whole unpack, so a case costs the square of its
    // length; a dozen cases still cross a 4 KiB run about ten times.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_cut_truncates_containers_like_their_layout(layout in arb_layout()) {
        let model: Vec<(Vec<u8>, Vec<usize>)> =
            layout.0.iter().map(|f| (f.wire(), f.reads())).collect();
        let packed = to_bytes(&mut layout.dup());
        for cut in 0..=packed.len() {
            // Unpack over the original values, as above.
            let mut dst = layout.dup();
            let mut p = Puper::unpacker(&packed[..cut]);
            dst.pup(&mut p);
            let got = p.finish();

            let mut at = 0;
            let mut first_short = None;
            for ((f, (full, reads)), out) in layout.0.iter().zip(&model).zip(&dst.0) {
                let mut ok = 0;
                for &r in reads {
                    if first_short.is_none() && at + r <= cut {
                        ok += 1;
                    } else {
                        first_short.get_or_insert((r, at));
                    }
                    at += r;
                }
                // Packing stands in for `out.wire()`: the test above pins
                // the two equal on any value, and packing is the faster.
                let mut bytes = Vec::new();
                out.dup().pup_field(&mut Puper::packer(&mut bytes));
                if ok == reads.len() {
                    prop_assert_eq!(&bytes, full, "cut {} field ending at {}", cut, at);
                } else {
                    let want = f.cut_wire(ok, full);
                    prop_assert_eq!(bytes, want, "cut {} field ending at {}", cut, at);
                }
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
