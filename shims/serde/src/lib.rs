//! Offline stand-in for the `serde` crate.
//!
//! Instead of serde's visitor-based zero-copy architecture, this shim
//! routes everything through an owned [`Value`] tree: `Serialize`
//! converts a type *to* a `Value`, `Deserialize` reads it back *from*
//! one. Formats (i.e. the `serde_json` shim) then only need to render
//! and parse `Value`s. The derive macros re-exported here generate the
//! corresponding `to_value`/`from_value` implementations for structs
//! with named fields, the one shape they support:
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Entity {
//!     id: u32,
//!     attrs: Vec<String>,
//! }
//!
//! let e = Entity { id: 7, attrs: vec!["a title".into(), String::new()] };
//! let back = Entity::from_value(&e.to_value()).unwrap();
//! assert_eq!(back, e);
//! ```
//!
//! Any other shape is refused at compile time:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! enum Side {
//!     Map,
//!     Reduce,
//! }
//! ```

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model every serializable type maps onto.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` / a missing field / `Option::None`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (positive ones normalize to [`Value::U64`]).
    I64(i64),
    /// Floating point number.
    F64(f64),
    /// String.
    Str(String),
    /// Ordered sequence (arrays, tuples).
    Seq(Vec<Value>),
    /// Ordered key-value map (structs, enum payloads).
    Map(Vec<(String, Value)>),
}

/// Error produced when a [`Value`] does not match the shape a
/// [`Deserialize`] implementation expects.
#[derive(Debug, Clone)]
pub struct DeError(String);

impl DeError {
    /// Build an error from a message.
    pub fn msg(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types convertible into the [`Value`] data model.
pub trait Serialize {
    /// Represent `self` as a value tree.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Serialize impls for std types
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! serialize_uint {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}
serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! serialize_int {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::U64(v as u64)
                } else {
                    Value::I64(v)
                }
            }
        }
    )*};
}
serialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize, D: Serialize> Serialize for (A, B, C, D) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
            self.3.to_value(),
        ])
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls for std types
// ---------------------------------------------------------------------------

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(mismatch("bool", other)),
        }
    }
}

macro_rules! deserialize_uint {
    ($($t:ty),* $(,)?) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = match v {
                    Value::U64(u) => *u,
                    Value::I64(i) if *i >= 0 => *i as u64,
                    other => return Err(mismatch("unsigned integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError::msg(format!("{} out of range for {}", raw, stringify!($t))))
            }
        }
    )*};
}
deserialize_uint!(u8, u16, u32, u64, usize);

macro_rules! deserialize_int {
    ($($t:ty),* $(,)?) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw: i64 = match v {
                    Value::I64(i) => *i,
                    Value::U64(u) => i64::try_from(*u)
                        .map_err(|_| DeError::msg(format!("{} out of range for i64", u)))?,
                    other => return Err(mismatch("integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError::msg(format!("{} out of range for {}", raw, stringify!($t))))
            }
        }
    )*};
}
deserialize_int!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::U64(u) => Ok(*u as f64),
            Value::I64(i) => Ok(*i as f64),
            other => Err(mismatch("number", other)),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(mismatch("string", other)),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(mismatch("sequence", other)),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = expect_seq_len(v, 2)?;
        Ok((A::from_value(&s[0])?, B::from_value(&s[1])?))
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = expect_seq_len(v, 3)?;
        Ok((
            A::from_value(&s[0])?,
            B::from_value(&s[1])?,
            C::from_value(&s[2])?,
        ))
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize, D: Deserialize> Deserialize for (A, B, C, D) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = expect_seq_len(v, 4)?;
        Ok((
            A::from_value(&s[0])?,
            B::from_value(&s[1])?,
            C::from_value(&s[2])?,
            D::from_value(&s[3])?,
        ))
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------------
// Helpers used by generated code
// ---------------------------------------------------------------------------

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::U64(_) | Value::I64(_) => "integer",
        Value::F64(_) => "float",
        Value::Str(_) => "string",
        Value::Seq(_) => "sequence",
        Value::Map(_) => "map",
    }
}

fn mismatch(expected: &str, got: &Value) -> DeError {
    DeError::msg(format!("expected {expected}, got {}", kind(got)))
}

fn expect_seq_len(v: &Value, len: usize) -> Result<&[Value], DeError> {
    match v {
        Value::Seq(s) if s.len() == len => Ok(s),
        Value::Seq(s) => Err(DeError::msg(format!(
            "expected sequence of {len} elements, got {}",
            s.len()
        ))),
        other => Err(mismatch("sequence", other)),
    }
}

/// Expect `v` to be a map; `what` names the type for error messages.
pub fn expect_map<'v>(v: &'v Value, what: &str) -> Result<&'v [(String, Value)], DeError> {
    match v {
        Value::Map(m) => Ok(m),
        other => Err(DeError::msg(format!(
            "expected map for {what}, got {}",
            kind(other)
        ))),
    }
}

/// Look up and deserialize field `name`; a missing field deserializes
/// from `Null` so `Option` fields default to `None`.
pub fn field<T: Deserialize>(map: &[(String, Value)], name: &str) -> Result<T, DeError> {
    match map.iter().find(|(k, _)| k == name) {
        Some((_, v)) => {
            T::from_value(v).map_err(|e| DeError::msg(format!("field `{name}`: {}", e.0)))
        }
        None => {
            T::from_value(&Value::Null).map_err(|_| DeError::msg(format!("missing field `{name}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip() {
        assert_eq!(u32::from_value(&5u32.to_value()).unwrap(), 5);
        assert_eq!(i64::from_value(&(-3i64).to_value()).unwrap(), -3);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        // Integral floats may arrive as integers from a JSON parser.
        assert_eq!(f64::from_value(&Value::U64(7)).unwrap(), 7.0);
    }

    #[test]
    fn option_handles_missing_field() {
        let m = [("present".to_string(), Value::U64(1))];
        let present: Option<u64> = field(&m, "present").unwrap();
        let absent: Option<u64> = field(&m, "absent").unwrap();
        assert_eq!(present, Some(1));
        assert_eq!(absent, None);
        let err = field::<u64>(&m, "absent").unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn tuples_and_vecs_round_trip() {
        let v = vec![(1u64, "a".to_string()), (2, "b".to_string())];
        let back: Vec<(u64, String)> = Deserialize::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);
    }
}
