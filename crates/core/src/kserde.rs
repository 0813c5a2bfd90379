//! Serialization at operator boundaries.
//!
//! Like Java Kafka Streams, the runtime moves raw bytes; typed DSL
//! operators (de)serialize at their edges via [`KSerde`]. Implementations
//! are provided for the primitive types the examples and benchmarks use;
//! applications implement the trait for their own types.

use crate::error::StreamsError;
use bytes::Bytes;
use std::cell::Cell;

/// A symmetric serializer/deserializer for one type.
pub trait KSerde: Sized + Clone + 'static {
    fn to_bytes(&self) -> Bytes;
    fn from_bytes(bytes: &[u8]) -> Result<Self, StreamsError>;

    /// Decode `bytes` and lend the value to `f`, for a caller that only
    /// borrows it (a typed operator handing a key to the user's closure).
    /// The default decodes with [`from_bytes`](Self::from_bytes); a type
    /// whose decoding allocates may reuse a buffer instead.
    fn with_decoded<R>(bytes: &[u8], f: impl FnOnce(&Self) -> R) -> Result<R, StreamsError> {
        Ok(f(&Self::from_bytes(bytes)?))
    }
}

thread_local! {
    /// The buffer [`String`]'s `with_decoded` lends. A call takes it and
    /// puts it back, so a nested call finds it empty and uses a fresh one.
    static DECODED_STRING: Cell<String> = const { Cell::new(String::new()) };
}

fn utf8(bytes: &[u8]) -> Result<&str, StreamsError> {
    std::str::from_utf8(bytes).map_err(|e| StreamsError::Serde(format!("invalid utf8: {e}")))
}

impl KSerde for String {
    fn to_bytes(&self) -> Bytes {
        Bytes::copy_from_slice(self.as_bytes())
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, StreamsError> {
        utf8(bytes).map(str::to_owned)
    }

    /// Validates into a reused thread-local buffer: no allocation once the
    /// buffer has grown to the longest string decoded.
    fn with_decoded<R>(bytes: &[u8], f: impl FnOnce(&Self) -> R) -> Result<R, StreamsError> {
        let text = utf8(bytes)?;
        let mut buf = DECODED_STRING.take();
        buf.clear();
        buf.push_str(text);
        let out = f(&buf);
        DECODED_STRING.set(buf);
        Ok(out)
    }
}

impl KSerde for Bytes {
    fn to_bytes(&self) -> Bytes {
        self.clone()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, StreamsError> {
        Ok(Bytes::copy_from_slice(bytes))
    }
}

impl KSerde for () {
    fn to_bytes(&self) -> Bytes {
        Bytes::new()
    }

    fn from_bytes(_: &[u8]) -> Result<Self, StreamsError> {
        Ok(())
    }
}

macro_rules! numeric_serde {
    ($($t:ty),*) => {$(
        impl KSerde for $t {
            fn to_bytes(&self) -> Bytes {
                Bytes::copy_from_slice(&self.to_be_bytes())
            }

            // Inline: a typed operator decodes a number per record, and a
            // call across the crate returns the `Result` through memory.
            #[inline]
            fn from_bytes(bytes: &[u8]) -> Result<Self, StreamsError> {
                let arr: [u8; std::mem::size_of::<$t>()] = bytes.try_into().map_err(|_| {
                    StreamsError::Serde(format!(
                        "expected {} bytes for {}, got {}",
                        std::mem::size_of::<$t>(),
                        stringify!($t),
                        bytes.len()
                    ))
                })?;
                Ok(<$t>::from_be_bytes(arr))
            }
        }
    )*};
}

numeric_serde!(i32, i64, u32, u64, f64);

impl<A: KSerde, B: KSerde> KSerde for (A, B) {
    fn to_bytes(&self) -> Bytes {
        let a = self.0.to_bytes();
        let b = self.1.to_bytes();
        let mut out = Encoder::with_capacity(4 + a.len() + b.len());
        out.put(&(a.len() as u32).to_be_bytes());
        out.put(&a);
        out.put(&b);
        out.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, StreamsError> {
        if bytes.len() < 4 {
            return Err(StreamsError::Serde("tuple too short".into()));
        }
        let alen = u32::from_be_bytes(bytes[..4].try_into().expect("checked")) as usize;
        if bytes.len() < 4 + alen {
            return Err(StreamsError::Serde("tuple truncated".into()));
        }
        Ok((A::from_bytes(&bytes[4..4 + alen])?, B::from_bytes(&bytes[4 + alen..])?))
    }
}

/// Longest encoding assembled on the stack.
const STACK_ENCODING: usize = 64;

/// An encoding under construction, sized up front. A short one is assembled
/// on the stack, so the `Bytes` it becomes is its only allocation, and there
/// is none when `Bytes` holds it inline.
enum Encoder {
    Stack([u8; STACK_ENCODING], usize),
    Heap(Vec<u8>),
}

impl Encoder {
    fn with_capacity(len: usize) -> Self {
        if len <= STACK_ENCODING {
            Self::Stack([0; STACK_ENCODING], 0)
        } else {
            Self::Heap(Vec::with_capacity(len))
        }
    }

    fn put(&mut self, part: &[u8]) {
        match self {
            Self::Stack(buf, len) => {
                buf[*len..*len + part.len()].copy_from_slice(part);
                *len += part.len();
            }
            Self::Heap(out) => out.extend_from_slice(part),
        }
    }

    fn finish(self) -> Bytes {
        match self {
            Self::Stack(buf, len) => Bytes::copy_from_slice(&buf[..len]),
            Self::Heap(out) => Bytes::from(out),
        }
    }
}

/// Encode an optional payload with a presence flag (used inside change
/// encoding).
fn encode_opt(out: &mut Encoder, v: &Option<Bytes>) {
    match v {
        None => out.put(&[0]),
        Some(b) => {
            out.put(&[1]);
            out.put(&(b.len() as u32).to_be_bytes());
            out.put(b);
        }
    }
}

fn decode_opt(bytes: &[u8]) -> Result<(Option<Bytes>, &[u8]), StreamsError> {
    match bytes.first() {
        Some(0) => Ok((None, &bytes[1..])),
        Some(1) => {
            if bytes.len() < 5 {
                return Err(StreamsError::Serde("opt truncated".into()));
            }
            let len = u32::from_be_bytes(bytes[1..5].try_into().expect("checked")) as usize;
            if bytes.len() < 5 + len {
                return Err(StreamsError::Serde("opt payload truncated".into()));
            }
            Ok((Some(Bytes::copy_from_slice(&bytes[5..5 + len])), &bytes[5 + len..]))
        }
        _ => Err(StreamsError::Serde("bad opt tag".into())),
    }
}

/// Encode a revision pair `(old, new)` into one record value. Used when a
/// table-valued stream crosses an internal topic so downstream operators can
/// retract the prior result (§5).
pub fn encode_change(old: &Option<Bytes>, new: &Option<Bytes>) -> Bytes {
    let mut out = Encoder::with_capacity(
        10 + old.as_ref().map_or(0, Bytes::len) + new.as_ref().map_or(0, Bytes::len),
    );
    encode_opt(&mut out, old);
    encode_opt(&mut out, new);
    out.finish()
}

/// Decode a revision pair encoded by [`encode_change`].
pub fn decode_change(bytes: &[u8]) -> Result<(Option<Bytes>, Option<Bytes>), StreamsError> {
    let (old, rest) = decode_opt(bytes)?;
    let (new, rest) = decode_opt(rest)?;
    if !rest.is_empty() {
        return Err(StreamsError::Serde("trailing bytes in change".into()));
    }
    Ok((old, new))
}

/// Encode a list of byte strings into one value (stream-stream join buffers
/// hold every record sharing a `(key, timestamp)` slot).
pub fn encode_list(items: &[Bytes]) -> Bytes {
    let mut out = Encoder::with_capacity(items.iter().map(|b| b.len() + 4).sum());
    for item in items {
        out.put(&(item.len() as u32).to_be_bytes());
        out.put(item);
    }
    out.finish()
}

/// Decode a list encoded by [`encode_list`].
pub fn decode_list(bytes: &[u8]) -> Result<Vec<Bytes>, StreamsError> {
    let mut items = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        if rest.len() < 4 {
            return Err(StreamsError::Serde("list truncated".into()));
        }
        let len = u32::from_be_bytes(rest[..4].try_into().expect("checked")) as usize;
        if rest.len() < 4 + len {
            return Err(StreamsError::Serde("list item truncated".into()));
        }
        items.push(Bytes::copy_from_slice(&rest[4..4 + len]));
        rest = &rest[4 + len..];
    }
    Ok(items)
}

/// Encode a windowed key `(key, window_start)`: raw key bytes followed by a
/// big-endian window start, so records of the same key sort by window.
pub fn encode_windowed_key(key: &[u8], window_start: i64) -> Bytes {
    let mut out = Encoder::with_capacity(key.len() + 8);
    out.put(key);
    out.put(&window_start.to_be_bytes());
    out.finish()
}

/// Decode a windowed key encoded by [`encode_windowed_key`].
pub fn decode_windowed_key(bytes: &[u8]) -> Result<(Bytes, i64), StreamsError> {
    if bytes.len() < 8 {
        return Err(StreamsError::Serde("windowed key too short".into()));
    }
    let split = bytes.len() - 8;
    let start = i64::from_be_bytes(bytes[split..].try_into().expect("checked"));
    Ok((Bytes::copy_from_slice(&bytes[..split]), start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_round_trip() {
        let s = "hello".to_string();
        assert_eq!(String::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn lent_strings_survive_nesting() {
        let outer = String::with_decoded(b"outer", |o| {
            let inner = String::with_decoded(b"in", String::clone).unwrap();
            (o.clone(), inner)
        });
        assert_eq!(outer.unwrap(), ("outer".to_string(), "in".to_string()));
        // The buffer is reused, never stale: a shorter string reads whole.
        assert_eq!(String::with_decoded(b"x", String::clone).unwrap(), "x");
        assert!(String::with_decoded(&[0xff, 0xfe], |_| ()).is_err());
        assert_eq!(i64::with_decoded(&7i64.to_bytes(), |v| *v).unwrap(), 7);
    }

    #[test]
    fn numeric_round_trips() {
        assert_eq!(i64::from_bytes(&42i64.to_bytes()).unwrap(), 42);
        assert_eq!(u64::from_bytes(&u64::MAX.to_bytes()).unwrap(), u64::MAX);
        assert_eq!(f64::from_bytes(&1.5f64.to_bytes()).unwrap(), 1.5);
        assert_eq!(i32::from_bytes(&(-7i32).to_bytes()).unwrap(), -7);
    }

    #[test]
    fn numeric_wrong_length_errors() {
        assert!(i64::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn tuple_round_trip() {
        let t = ("key".to_string(), 99i64);
        let b = t.to_bytes();
        assert_eq!(<(String, i64)>::from_bytes(&b).unwrap(), t);
    }

    #[test]
    fn change_round_trip() {
        for (old, new) in [
            (None, Some(Bytes::from_static(b"n"))),
            (Some(Bytes::from_static(b"o")), None),
            (Some(Bytes::from_static(b"o")), Some(Bytes::from_static(b"n"))),
            (None, None),
        ] {
            let enc = encode_change(&old, &new);
            assert_eq!(decode_change(&enc).unwrap(), (old, new));
        }
    }

    #[test]
    fn change_rejects_garbage() {
        assert!(decode_change(&[9, 9]).is_err());
        assert!(decode_change(&[]).is_err());
    }

    #[test]
    fn windowed_key_round_trip() {
        let enc = encode_windowed_key(b"user-1", 5000);
        let (k, start) = decode_windowed_key(&enc).unwrap();
        assert_eq!(k.as_ref(), b"user-1");
        assert_eq!(start, 5000);
    }

    #[test]
    fn windowed_keys_sort_by_window_for_same_key() {
        let a = encode_windowed_key(b"k", 1000);
        let b = encode_windowed_key(b"k", 2000);
        assert!(a < b);
    }

    #[test]
    fn list_round_trip() {
        let items = vec![Bytes::from_static(b"a"), Bytes::new(), Bytes::from_static(b"ccc")];
        assert_eq!(decode_list(&encode_list(&items)).unwrap(), items);
        assert!(decode_list(&encode_list(&[])).unwrap().is_empty());
    }

    #[test]
    fn list_rejects_truncation() {
        let enc = encode_list(&[Bytes::from_static(b"abcdef")]);
        assert!(decode_list(&enc[..enc.len() - 1]).is_err());
        assert!(decode_list(&[0, 0]).is_err());
    }

    #[test]
    fn encodings_round_trip_on_both_sides_of_the_stack_buffer() {
        for n in [0, 1, 14, 15, 55, 56, 57, 60, 61, 64, 65, 200] {
            let payload = Bytes::from(vec![7; n]);
            let key = decode_windowed_key(&encode_windowed_key(&payload, -3)).unwrap();
            assert_eq!(key, (payload.clone(), -3));
            let some = Some(payload.clone());
            assert_eq!(decode_change(&encode_change(&some, &some)).unwrap(), (some.clone(), some));
            let items = [payload.clone(), payload.clone()];
            assert_eq!(decode_list(&encode_list(&items)).unwrap(), items);
            let tuple = (payload, n as i64);
            assert_eq!(<(Bytes, i64)>::from_bytes(&tuple.to_bytes()).unwrap(), tuple);
        }
    }

    #[test]
    fn empty_string_ok() {
        assert_eq!(String::from_bytes(&String::new().to_bytes()).unwrap(), "");
    }
}
