//! The [`Value`] type: a parsed or constructed JSON document.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::str::FromStr;

use crate::error::ParseJsonError;

/// An ordered JSON object.
///
/// Keys are kept in insertion order so that the simulator output sections
/// appear in the same order as in the paper's Listing 1. Each key is
/// stored once, next to its value. Small objects (all the simulator
/// renders) look keys up by a scan; past sixteen entries a hash index
/// keeps lookups, and so parsing an object with many keys, close to
/// constant time per key.
#[derive(Clone, Default)]
pub struct Map {
    /// Keys written as literals in [`json!`](crate::json) are borrowed,
    /// so rendering a document allocates no key.
    entries: Vec<(Cow<'static, str>, Value)>,
    index: Option<Box<Index>>,
}

/// Entry count above which a [`Map`] keeps a hash index.
const INDEXED_LEN: usize = 16;

/// Open-addressing table of positions in [`Map::entries`], probed
/// linearly and at most half full. Keys hash with the standard library's
/// randomly keyed hasher, so keys from an untrusted document cannot be
/// chosen to collide.
#[derive(Clone)]
struct Index {
    slots: Vec<u32>,
    hasher: RandomState,
}

/// An unused [`Index`] slot.
const VACANT: u32 = u32::MAX;

impl Index {
    /// Indexes every entry of `entries`.
    fn build(entries: &[(Cow<'static, str>, Value)]) -> Self {
        let mut index = Index {
            slots: vec![VACANT; (2 * entries.len()).next_power_of_two()],
            hasher: RandomState::new(),
        };
        for (pos, (key, _)) in entries.iter().enumerate() {
            index.add(key, pos);
        }
        index
    }

    /// The first slot of `key`'s probe sequence.
    fn home(&self, key: &str) -> usize {
        self.hasher.hash_one(key) as usize & (self.slots.len() - 1)
    }

    /// Records that `key` sits at `pos`; the caller has checked that it is
    /// not indexed yet and that a vacant slot remains.
    fn add(&mut self, key: &str, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        while self.slots[slot] != VACANT {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = pos as u32;
    }

    /// The position of `key` in `entries`.
    fn find(&self, entries: &[(Cow<'static, str>, Value)], key: &str) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            let pos = self.slots[slot];
            if pos == VACANT {
                return None;
            }
            if entries[pos as usize].0.as_ref() == key {
                return Some(pos as usize);
            }
            slot = (slot + 1) & mask;
        }
    }
}

impl Map {
    /// Creates an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of key/value pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The position of `key` in insertion order.
    fn position(&self, key: &str) -> Option<usize> {
        match &self.index {
            Some(index) => index.find(&self.entries, key),
            None => self.entries.iter().position(|(k, _)| k.as_ref() == key),
        }
    }

    /// Inserts a key/value pair, returning the previous value for `key` if
    /// one existed. Insertion order is preserved; re-inserting an existing
    /// key keeps its original position.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        self.insert_key(Cow::Owned(key.into()), value.into())
    }

    /// [`insert`](Map::insert) for a key that lives for the whole
    /// program, stored without a copy; [`json!`](crate::json) uses it for
    /// literal keys.
    pub fn insert_static(&mut self, key: &'static str, value: impl Into<Value>) -> Option<Value> {
        self.insert_key(Cow::Borrowed(key), value.into())
    }

    fn insert_key(&mut self, key: Cow<'static, str>, value: Value) -> Option<Value> {
        if let Some(pos) = self.position(&key) {
            return Some(std::mem::replace(&mut self.entries[pos].1, value));
        }
        let pos = self.entries.len();
        self.entries.push((key, value));
        match &mut self.index {
            Some(index) if 2 * (pos + 1) <= index.slots.len() => {
                index.add(&self.entries[pos].0, pos);
            }
            _ if pos + 1 > INDEXED_LEN => self.index = Some(Box::new(Index::build(&self.entries))),
            _ => {}
        }
        None
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).map(|pos| &self.entries[pos].1)
    }

    /// Looks up a value by key, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.position(key).map(|pos| &mut self.entries[pos].1)
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let pos = self.position(key)?;
        let (_, value) = self.entries.remove(pos);
        // Later entries moved down one position.
        self.index =
            (self.entries.len() > INDEXED_LEN).then(|| Box::new(Index::build(&self.entries)));
        Some(value)
    }

    /// Whether the object contains `key`.
    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_some()
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Iterates over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_ref())
    }
}

/// Two objects are equal when they hold the same pairs in the same order.
impl PartialEq for Map {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<String>, V: Into<Value>> FromIterator<(K, V)> for Map {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Into<String>, V: Into<Value>> Extend<(K, V)> for Map {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// A JSON number: either an integer (preserved exactly up to 64 bits) or a
/// binary64 float.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer that does not fit in `i64`.
    UInt(u64),
    /// A floating-point number. NaN and infinities are not representable in
    /// JSON and are serialized as `null` by the writer.
    Float(f64),
}

impl Number {
    /// Returns the value as `f64` (lossy for very large integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::Int(v) => v as f64,
            Number::UInt(v) => v as f64,
            Number::Float(v) => v,
        }
    }

    /// Returns the value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::Int(v) => Some(v),
            Number::UInt(v) => i64::try_from(v).ok(),
            Number::Float(_) => None,
        }
    }

    /// Returns the value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::Int(v) => u64::try_from(v).ok(),
            Number::UInt(v) => Some(v),
            Number::Float(_) => None,
        }
    }
}

/// A JSON document node.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// A JSON number.
    Number(Number),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object (insertion-ordered).
    Object(Map),
}

impl Value {
    /// Creates an empty object value.
    pub fn object() -> Value {
        Value::Object(Map::new())
    }

    /// Creates an empty array value.
    pub fn array() -> Value {
        Value::Array(Vec::new())
    }

    /// Returns `true` for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as `f64` if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Returns the value as `i64` if this is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Returns the value as `u64` if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Returns the string slice if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the array slice if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the object if this is an `Object`.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the object mutably if this is an `Object`.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `key` if this is an object; returns `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Serializes to a compact, single-line JSON string.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        crate::ser::write_compact(self, &mut out);
        out
    }

    /// Serializes to an indented, human-friendly JSON string.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        crate::ser::write_pretty(self, 0, &mut out);
        out
    }
}

/// Indexing an object by key. Panics if the key is missing or the value is
/// not an object (mirrors `serde_json`'s ergonomics for tests and examples).
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key)
            .unwrap_or_else(|| panic!("no key {key:?} in JSON value"))
    }
}

/// Indexing an array by position. Panics when out of bounds or not an array.
impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => &a[idx],
            other => panic!("cannot index {other:?} with {idx}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            f.write_str(&self.to_pretty_string())
        } else {
            f.write_str(&self.to_compact_string())
        }
    }
}

impl FromStr for Value {
    type Err = ParseJsonError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::de::parse(s)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::Int(v as i64))
            }
        }
    )*};
}

from_int!(i8, i16, i32, i64, isize, u8, u16, u32);

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        match i64::try_from(v) {
            Ok(i) => Value::Number(Number::Int(i)),
            Err(_) => Value::Number(Number::UInt(v)),
        }
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::from(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::Float(v))
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::Float(v as f64))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<Map> for Value {
    fn from(v: Map) -> Value {
        Value::Object(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order() {
        let mut m = Map::new();
        m.insert("zebra", 1);
        m.insert("alpha", 2);
        m.insert("middle", 3);
        let keys: Vec<_> = m.keys().collect();
        assert_eq!(keys, ["zebra", "alpha", "middle"]);
    }

    #[test]
    fn map_reinsert_keeps_position() {
        let mut m = Map::new();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.insert("a", 10), Some(Value::from(1)));
        let keys: Vec<_> = m.keys().collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(m.get("a"), Some(&Value::from(10)));
    }

    #[test]
    fn map_remove() {
        let mut m = Map::new();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.remove("a"), Some(Value::from(1)));
        assert_eq!(m.remove("a"), None);
        assert_eq!(m.len(), 1);
        assert!(!m.contains_key("a"));
    }

    #[test]
    fn large_objects_parse_in_linear_time_and_keep_order() {
        // 100k distinct keys plus a duplicate of the first: a linear
        // per-key lookup would make this parse quadratic.
        let n = 100_000;
        let mut text = String::from("{");
        for i in 0..n {
            text.push_str(&format!("\"k{i}\":{i},"));
        }
        text.push_str("\"k0\":-1}");
        let doc: Value = text.parse().unwrap();
        let map = doc.as_object().unwrap();
        assert_eq!(map.len(), n);
        assert_eq!(map.get("k0"), Some(&Value::from(-1)), "last duplicate wins");
        assert_eq!(map.keys().next(), Some("k0"), "and keeps its position");
        assert_eq!(map.get("k99999"), Some(&Value::from(99_999)));
        assert_eq!(map.get("k100000"), None);
        assert_eq!(
            map.iter().nth(n / 2),
            Some(("k50000", &Value::from(50_000)))
        );
    }

    #[test]
    fn indexed_map_remove_and_reinsert() {
        let mut m: Map = (0..40).map(|i| (format!("k{i}"), i)).collect();
        assert_eq!(m.remove("k3"), Some(Value::from(3)));
        assert_eq!(m.get("k39"), Some(&Value::from(39)), "positions shifted");
        assert!(!m.contains_key("k3"));
        m.insert("k3", 300);
        assert_eq!(m.keys().last(), Some("k3"), "a removed key re-enters last");
        for i in (0..40).filter(|&i| i != 3) {
            assert_eq!(m.get(&format!("k{i}")), Some(&Value::from(i)));
        }
        let mut small: Map = m.iter().take(4).map(|(k, v)| (k, v.clone())).collect();
        for (k, v) in m.iter() {
            small.insert(k, v.clone());
        }
        assert_eq!(small, m, "equal pairs in equal order, however indexed");
    }

    #[test]
    fn number_conversions() {
        assert_eq!(Value::from(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(Value::from(u64::MAX).as_i64(), None);
        assert_eq!(Value::from(-3).as_i64(), Some(-3));
        assert_eq!(Value::from(-3).as_u64(), None);
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from(7u32).as_f64(), Some(7.0));
    }

    #[test]
    fn from_option_and_vec() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(4)), Value::from(4));
        let arr = Value::from(vec![1, 2, 3]);
        assert_eq!(arr[2], Value::from(3));
    }

    #[test]
    #[should_panic(expected = "no key")]
    fn index_missing_key_panics() {
        let v = Value::object();
        let _ = &v["missing"];
    }
}
