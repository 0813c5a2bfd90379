//! Offline stand-in for the `bytes` crate.
//!
//! The workspace builds in a hermetic environment with no access to
//! crates.io, so the handful of external dependencies are replaced by small
//! local shims (see `shims/` in the repo root). This one provides [`Bytes`]:
//! an immutable, cheaply cloneable byte buffer. Only the API surface actually
//! used by this workspace is implemented.
//!
//! # Representation
//!
//! Most payloads on the record path are keys and values of 8–17 bytes, so a
//! `Bytes` of at most 22 bytes holds its payload *inline*: a length byte and
//! a 22-byte buffer beside the enum tag. Making one allocates nothing,
//! cloning one copies its three words instead of touching an atomic
//! refcount, and reading one chases no pointer. A longer payload is *shared*
//! behind an `Arc<[u8]>`, so no clone ever copies more than three words.
//! Either way `Bytes` is three words, and so is `Option<Bytes>`: `None` takes
//! a spare value of the tag byte.
//!
//! Equality, ordering and hashing are the byte slice's, whichever variant
//! holds it, so a `Bytes`-keyed map can be probed with a `&[u8]` through
//! [`Borrow<[u8]>`](Borrow).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Longest payload held inline: what fits in three words after the enum tag
/// and the length byte.
const INLINE_CAP: usize = 22;

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is the payload; `len <= INLINE_CAP`.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// A payload longer than `INLINE_CAP`.
    Shared(Arc<[u8]>),
}

/// A cheaply cloneable, immutable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes(Repr);

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self(Repr::Inline { len: 0, buf: [0; INLINE_CAP] })
    }

    /// A buffer holding `data`. (The real crate borrows the static slice;
    /// this shim copies it once, which is fine for simulation workloads.)
    #[must_use]
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Copy `data` into a fresh buffer.
    #[inline]
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::inline(data).unwrap_or_else(|| Self(Repr::Shared(Arc::from(data))))
    }

    /// `data` inline, if it fits.
    #[inline]
    fn inline(data: &[u8]) -> Option<Self> {
        if data.len() > INLINE_CAP {
            return None;
        }
        let mut buf = [0; INLINE_CAP];
        buf[..data.len()].copy_from_slice(data);
        Some(Self(Repr::Inline { len: data.len() as u8, buf }))
    }

    /// Length in bytes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Shared(data) => data.len(),
        }
    }

    /// Whether the buffer is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Shared(data) => data,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Bytes {
    /// The slice's hash, as `Borrow<[u8]>` requires: the variant is not
    /// hashed.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self::inline(&v).unwrap_or_else(|| Self(Repr::Shared(Arc::from(v))))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::from_static(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Self::from_static(s)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};
    use std::hash::{BuildHasher, RandomState};

    #[test]
    fn round_trips_and_compares() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn usable_as_hash_map_key() {
        let mut m: HashMap<Bytes, i32> = HashMap::new();
        m.insert(Bytes::from_static(b"k"), 7);
        assert_eq!(m.get(&Bytes::from(String::from("k"))), Some(&7));
        // Borrow<[u8]> allows lookup by slice.
        assert_eq!(m.get(b"k".as_slice()), Some(&7));
    }

    #[test]
    fn sorts_lexicographically() {
        let mut v = [Bytes::from_static(b"b"), Bytes::from_static(b"a")];
        v.sort();
        assert_eq!(v[0], Bytes::from_static(b"a"));
    }

    #[test]
    fn debug_escapes_non_printable() {
        assert_eq!(format!("{:?}", Bytes::from(vec![b'a', 0x00])), "b\"a\\x00\"");
    }

    /// ASCII, so every prefix is also a valid `&str` and `String`.
    const PAYLOAD: &str = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-_";

    type Constructor = fn(&'static str) -> Bytes;

    /// Every public constructor that takes a payload.
    const CONSTRUCTORS: [(&str, Constructor); 6] = [
        ("from_static", |s| Bytes::from_static(s.as_bytes())),
        ("copy_from_slice", |s| Bytes::copy_from_slice(s.as_bytes())),
        ("From<Vec<u8>>", |s| Bytes::from(s.as_bytes().to_vec())),
        ("From<String>", |s| Bytes::from(s.to_owned())),
        ("From<&'static str>", Bytes::from),
        ("From<&'static [u8]>", |s| Bytes::from(s.as_bytes())),
    ];

    /// `(payload, bytes)` for every length 0..=64 and every constructor,
    /// plus `new` and `default`.
    fn every_payload() -> Vec<(&'static [u8], Bytes)> {
        let mut all = vec![(&b""[..], Bytes::new()), (&b""[..], Bytes::default())];
        for n in 0..=PAYLOAD.len() {
            for (_, make) in CONSTRUCTORS {
                all.push((&PAYLOAD.as_bytes()[..n], make(&PAYLOAD[..n])));
            }
        }
        all
    }

    #[test]
    fn payloads_up_to_the_inline_capacity_are_inline() {
        assert_eq!(PAYLOAD.len(), 64);
        for (payload, bytes) in every_payload() {
            let inline = matches!(bytes.0, Repr::Inline { .. });
            assert_eq!(inline, payload.len() <= INLINE_CAP, "{} bytes", payload.len());
        }
    }

    #[test]
    fn every_constructor_holds_its_payload() {
        for n in 0..=PAYLOAD.len() {
            let payload = &PAYLOAD[..n];
            for (name, make) in CONSTRUCTORS {
                let bytes = make(payload);
                assert_eq!(&*bytes, payload.as_bytes(), "{name}, {n} bytes");
                assert_eq!(bytes.as_ref(), payload.as_bytes(), "{name}, {n} bytes");
                assert_eq!(bytes.len(), n, "{name}");
                assert_eq!(bytes.is_empty(), n == 0, "{name}");
                assert_eq!(bytes.clone(), bytes, "{name}, {n} bytes");
            }
        }
    }

    #[test]
    fn eq_ord_and_hash_are_the_slices() {
        // Same-length payloads that differ in their last byte, on both sides
        // of the inline capacity, besides every prefix.
        let mut all = every_payload();
        for n in 1..=PAYLOAD.len() {
            let mut v = PAYLOAD.as_bytes()[..n].to_vec();
            v[n - 1] = b'!';
            all.push((v.clone().leak(), Bytes::from(v)));
        }
        let hasher = RandomState::new();
        for (a_payload, a) in &all {
            assert_eq!(hasher.hash_one(a), hasher.hash_one(*a_payload), "{a:?}");
            for (b_payload, b) in &all {
                assert_eq!(a == b, a_payload == b_payload, "{a:?} == {b:?}");
                assert_eq!(a.cmp(b), a_payload.cmp(b_payload), "{a:?} cmp {b:?}");
                assert_eq!(a.partial_cmp(b), a_payload.partial_cmp(b_payload));
            }
        }
    }

    #[test]
    fn maps_find_every_key_by_slice() {
        let all = every_payload();
        let hashed: HashMap<Bytes, &[u8]> = all.iter().map(|(p, b)| (b.clone(), *p)).collect();
        let sorted: BTreeMap<Bytes, &[u8]> = all.iter().map(|(p, b)| (b.clone(), *p)).collect();
        assert_eq!(hashed.len(), PAYLOAD.len() + 1);
        assert_eq!(sorted.len(), PAYLOAD.len() + 1);
        for (payload, _) in &all {
            assert_eq!(hashed.get(*payload), Some(payload));
            assert_eq!(sorted.get(*payload), Some(payload));
        }
    }

    #[test]
    fn is_three_words_with_or_without_a_value() {
        assert_eq!(size_of::<Bytes>(), 24);
        assert_eq!(size_of::<Option<Bytes>>(), 24);
    }
}
