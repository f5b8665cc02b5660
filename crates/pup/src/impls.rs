//! [`Pup`] implementations for primitives and standard containers.

use crate::error::PupError;
use crate::puper::{Pup, Puper};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::mem::ManuallyDrop;

macro_rules! pup_le_prim {
    ($($t:ty),*) => {$(
        impl Pup for $t {
            #[inline]
            fn pup(&mut self, p: &mut Puper) {
                *self = <$t>::from_le_bytes(p.fixed(self.to_le_bytes()));
            }
        }
    )*};
}

pup_le_prim!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Pup for usize {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        // Fixed 8-byte encoding so packed images are word-size independent.
        let mut v = *self as u64;
        v.pup(p);
        if p.is_unpacking() {
            *self = v as usize;
        }
    }
}

impl Pup for isize {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let mut v = *self as i64;
        v.pup(p);
        if p.is_unpacking() {
            *self = v as isize;
        }
    }
}

impl Pup for bool {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let mut b = *self as u8;
        b.pup(p);
        if p.is_unpacking() {
            if b > 1 {
                p.fail(PupError::Corrupt("bool tag"));
            }
            *self = b != 0;
        }
    }
}

impl Pup for char {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let mut v = *self as u32;
        v.pup(p);
        if p.is_unpacking() {
            match char::from_u32(v) {
                Some(c) => *self = c,
                None => p.fail(PupError::Corrupt("char scalar")),
            }
        }
    }
}

impl Pup for () {
    #[inline]
    fn pup(&mut self, _p: &mut Puper) {}
}

#[inline]
fn pup_len(p: &mut Puper, len: usize) -> usize {
    let mut n = len as u64;
    n.pup(p);
    n as usize
}

impl<T: Pup + Default> Pup for Vec<T> {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let n = pup_len(p, self.len());
        if p.is_unpacking() {
            // Guard against hostile length prefixes: cap the up-front
            // reservation; pushes still grow geometrically if the data is
            // really that long (it will hit Truncated first otherwise).
            self.clear();
            self.reserve(n.min(64 * 1024));
            for _ in 0..n {
                if p.has_error() {
                    return;
                }
                let mut v = T::default();
                v.pup(p);
                self.push(v);
            }
        } else {
            for v in self.iter_mut() {
                v.pup(p);
            }
        }
    }
}

impl<T: Pup + Default> Pup for VecDeque<T> {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let n = pup_len(p, self.len());
        if p.is_unpacking() {
            self.clear();
            for _ in 0..n {
                if p.has_error() {
                    return;
                }
                let mut v = T::default();
                v.pup(p);
                self.push_back(v);
            }
        } else {
            for v in self.iter_mut() {
                v.pup(p);
            }
        }
    }
}

impl Pup for String {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let n = pup_len(p, self.len());
        if p.is_unpacking() {
            let at = p.offset();
            self.clear();
            if let Some(bytes) = p.take(n) {
                match std::str::from_utf8(bytes) {
                    Ok(s) => self.push_str(s),
                    Err(_) => p.fail(PupError::InvalidUtf8 { at }),
                }
            }
        } else {
            p.write(self.as_bytes());
        }
    }
}

impl<T: Pup + Default> Pup for Option<T> {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let mut tag = self.is_some() as u8;
        tag.pup(p);
        if p.is_unpacking() {
            match tag {
                0 => *self = None,
                1 => {
                    let mut v = T::default();
                    v.pup(p);
                    *self = Some(v);
                }
                _ => p.fail(PupError::Corrupt("Option tag")),
            }
        } else if let Some(v) = self {
            v.pup(p);
        }
    }
}

impl<T: Pup + Default> Pup for Box<T> {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        (**self).pup(p);
    }
}

impl<T: Pup, const N: usize> Pup for [T; N] {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        for v in self.iter_mut() {
            v.pup(p);
        }
    }
}

impl<K, V> Pup for HashMap<K, V>
where
    K: Pup + Default + Eq + Hash,
    V: Pup + Default,
{
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let n = pup_len(p, self.len());
        if p.is_unpacking() {
            self.clear();
            for _ in 0..n {
                if p.has_error() {
                    return;
                }
                let mut k = K::default();
                let mut v = V::default();
                k.pup(p);
                v.pup(p);
                self.insert(k, v);
            }
        } else {
            // NOTE: iteration order is unspecified, so two packs of the
            // same map may differ byte-wise; round-trips are still exact.
            for (k, v) in self.iter_mut() {
                // Keys are logically immutable in a map; read through a
                // temporary to keep the single-traversal contract.
                // SAFETY: `kk` is a bitwise copy of `*k` that is only
                // packed (a read-only traversal) and never dropped, not
                // even if `pup` unwinds, so ownership stays with the map
                // and nothing is aliased mutably.
                let mut kk = ManuallyDrop::new(unsafe { std::ptr::read(k) });
                kk.pup(p);
                v.pup(p);
            }
        }
    }
}

impl<K, V> Pup for BTreeMap<K, V>
where
    K: Pup + Default + Ord,
    V: Pup + Default,
{
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let n = pup_len(p, self.len());
        if p.is_unpacking() {
            self.clear();
            for _ in 0..n {
                if p.has_error() {
                    return;
                }
                let mut k = K::default();
                let mut v = V::default();
                k.pup(p);
                v.pup(p);
                self.insert(k, v);
            }
        } else {
            for (k, v) in self.iter_mut() {
                // SAFETY: as for HashMap above — the bitwise copy is only
                // packed and never dropped.
                let mut kk = ManuallyDrop::new(unsafe { std::ptr::read(k) });
                kk.pup(p);
                v.pup(p);
            }
        }
    }
}

macro_rules! pup_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Pup),+> Pup for ($($name,)+) {
            #[inline]
            fn pup(&mut self, p: &mut Puper) {
                $( self.$idx.pup(p); )+
            }
        }
    };
}

pup_tuple!(A: 0);
pup_tuple!(A: 0, B: 1);
pup_tuple!(A: 0, B: 1, C: 2);
pup_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use crate::{from_bytes, from_bytes_prefix, packed_size, to_bytes, PupError};
    use std::collections::{BTreeMap, HashMap};

    fn roundtrip<T: crate::Pup + Default + PartialEq + std::fmt::Debug + Clone>(v: &T) {
        let mut src = v.clone();
        let bytes = to_bytes(&mut src);
        assert_eq!(bytes.len(), packed_size(&mut src), "size pass must agree");
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&0xABu8);
        roundtrip(&-12345i32);
        roundtrip(&u64::MAX);
        roundtrip(&i128::MIN);
        roundtrip(&3.25f64);
        roundtrip(&f32::NEG_INFINITY);
        roundtrip(&true);
        roundtrip(&'λ');
        roundtrip(&usize::MAX);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&"héllo wörld".to_string());
        roundtrip(&String::new());
        roundtrip(&Some(42u16));
        roundtrip(&Option::<u16>::None);
        roundtrip(&[1u8, 2, 3, 4]);
        roundtrip(&(1u8, 2u32, "x".to_string()));
        roundtrip(&vec![vec![1u8], vec![], vec![2, 3]]);
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2);
        roundtrip(&m);
        let mut h = HashMap::new();
        h.insert(1u64, "one".to_string());
        h.insert(2, "two".to_string());
        roundtrip(&h);
        let mut dq = std::collections::VecDeque::new();
        dq.push_back(5u8);
        dq.push_front(4);
        roundtrip(&dq);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut v = vec![1u64, 2, 3];
        let bytes = to_bytes(&mut v);
        for cut in 0..bytes.len() {
            let r: Result<Vec<u64>, _> = from_bytes(&bytes[..cut]);
            assert!(
                matches!(r, Err(PupError::Truncated { .. })),
                "cut at {cut} must report truncation"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut v = 7u32;
        let mut bytes = to_bytes(&mut v);
        bytes.push(0);
        let r: Result<u32, _> = from_bytes(&bytes);
        assert_eq!(r, Err(PupError::TrailingBytes(1)));
    }

    #[test]
    fn prefix_decoding_reports_consumption() {
        let mut a = 1u32;
        let mut b = 2u64;
        let mut bytes = to_bytes(&mut a);
        bytes.extend(to_bytes(&mut b));
        let (x, used): (u32, usize) = from_bytes_prefix(&bytes).unwrap();
        assert_eq!(x, 1);
        assert_eq!(used, 4);
        let (y, used2): (u64, usize) = from_bytes_prefix(&bytes[used..]).unwrap();
        assert_eq!(y, 2);
        assert_eq!(used2, 8);
    }

    #[test]
    fn corrupt_tags_detected() {
        // Option tag must be 0/1.
        let bytes = vec![9u8];
        let r: Result<Option<u8>, _> = from_bytes(&bytes);
        assert!(matches!(r, Err(PupError::Corrupt(_))));
        // bool tag must be 0/1.
        let r: Result<bool, _> = from_bytes(&[7u8]);
        assert!(matches!(r, Err(PupError::Corrupt(_))));
        // Invalid UTF-8 in a String.
        let mut evil: Vec<u8> = vec![0xFFu8, 0xFE];
        let packed = to_bytes(&mut evil);
        let r: Result<String, _> = from_bytes(&packed);
        assert!(matches!(r, Err(PupError::InvalidUtf8 { .. })));
    }

    #[test]
    fn hostile_length_prefix_does_not_oom() {
        // A Vec claiming u64::MAX elements must fail fast on truncation,
        // not attempt a giant allocation.
        let mut bytes = Vec::new();
        bytes.extend(u64::MAX.to_le_bytes());
        let r: Result<Vec<u64>, _> = from_bytes(&bytes);
        assert!(matches!(r, Err(PupError::Truncated { .. })));
    }

    #[test]
    fn pup_fields_macro_works() {
        #[derive(Default, Debug, PartialEq, Clone)]
        struct Nested {
            id: u32,
            name: String,
        }
        crate::pup_fields!(Nested { id, name });

        #[derive(Default, Debug, PartialEq, Clone)]
        struct Outer {
            xs: Vec<f64>,
            inner: Nested,
            flag: bool,
        }
        crate::pup_fields!(Outer { xs, inner, flag });

        roundtrip(&Outer {
            xs: vec![1.5, -2.5],
            inner: Nested {
                id: 17,
                name: "zone".into(),
            },
            flag: true,
        });
    }
}
