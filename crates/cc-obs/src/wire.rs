//! The JSONL wire codecs and the `schema!` macro that turns the table in
//! `schema.rs` into types, an encoder and a strict decoder.
//!
//! Every field is written and read through one [`Wire`] impl, chosen by
//! its Rust type: integers in decimal, floats in `Display` form (or
//! `null`), booleans, the id and quantity newtypes as their raw integers,
//! a `WarmId` as `[slot,generation]`, and label types as quoted labels.
//! Keys, tags and labels are static strings the macro builds with
//! `concat!`, and integers are formatted by hand, so encoding allocates
//! nothing beyond the output buffer's own growth.

use std::fmt;
use std::io::Write as _;

use cc_types::{Cost, FunctionId, MemoryMb, NodeId, SimDuration, SimTime, WarmId};

/// What went wrong decoding one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The line ended before the expected structure was complete.
    Truncated,
    /// The bytes at the error position did not match the canonical token
    /// (wrong key, wrong separator, wrong quoting — anything structural).
    ExpectedToken(&'static str),
    /// The `"t"` tag names no known event or marker type.
    UnknownTag(String),
    /// A numeric field failed to parse (empty, malformed, or out of range).
    BadNumber(&'static str),
    /// A string-enum field carried an unknown label.
    BadLabel {
        /// The field whose label was unrecognized.
        field: &'static str,
        /// The label found.
        found: String,
    },
    /// Valid structure, but bytes remained after the closing brace.
    TrailingData,
}

/// A typed, non-panicking line decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset within the line where decoding failed.
    pub at: usize,
    /// What went wrong.
    pub kind: DecodeErrorKind,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            DecodeErrorKind::Truncated => write!(f, "truncated line (byte {})", self.at),
            DecodeErrorKind::ExpectedToken(token) => {
                write!(f, "expected {token:?} at byte {}", self.at)
            }
            DecodeErrorKind::UnknownTag(tag) => write!(f, "unknown event tag {tag:?}"),
            DecodeErrorKind::BadNumber(field) => {
                write!(f, "malformed number for {field:?} at byte {}", self.at)
            }
            DecodeErrorKind::BadLabel { field, found } => {
                write!(f, "unknown {field} label {found:?} at byte {}", self.at)
            }
            DecodeErrorKind::TrailingData => {
                write!(f, "trailing data after object at byte {}", self.at)
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A read position in one line. Every method consumes exactly one
/// canonical token or fails with a typed error: a malformed token at its
/// first byte, a line that ends inside a token as
/// [`DecodeErrorKind::Truncated`].
pub(crate) struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(s: &'a str) -> Cursor<'a> {
        Cursor { s, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn fail(&self, kind: DecodeErrorKind) -> DecodeError {
        DecodeError { at: self.pos, kind }
    }

    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }

    /// Consumes an exact literal (a key, separator, or punctuation run).
    pub(crate) fn lit(&mut self, token: &'static str) -> Result<(), DecodeError> {
        let rest = self.rest();
        if rest.starts_with(token) {
            self.pos += token.len();
            Ok(())
        } else if token.starts_with(rest) {
            Err(self.fail(DecodeErrorKind::Truncated))
        } else {
            Err(self.fail(DecodeErrorKind::ExpectedToken(token)))
        }
    }

    /// Consumes a decimal integer token.
    fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        let rest = self.rest();
        let digits = &rest[..rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len())];
        if rest.is_empty() {
            return Err(self.fail(DecodeErrorKind::Truncated));
        }
        let value = digits
            .parse::<u64>()
            .map_err(|_| self.fail(DecodeErrorKind::BadNumber(field)))?;
        self.pos += digits.len();
        Ok(value)
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        let at = self.pos;
        let value = self.u64(field)?;
        u32::try_from(value).map_err(|_| DecodeError {
            at,
            kind: DecodeErrorKind::BadNumber(field),
        })
    }

    /// Consumes a JSON number or `null` (the encoding of non-finite
    /// floats); `null` decodes to NaN.
    fn f64_or_null(&mut self, field: &'static str) -> Result<f64, DecodeError> {
        let rest = self.rest();
        if rest.starts_with("null") {
            self.pos += 4;
            return Ok(f64::NAN);
        }
        let end = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        match rest[..end].parse::<f64>() {
            // Canonical encoding spells non-finite values as `null`.
            Ok(value) if value.is_finite() => {
                self.pos += end;
                Ok(value)
            }
            // The line ended inside the number (or inside `null`).
            Err(_) if end == rest.len() || "null".starts_with(rest) => {
                Err(self.fail(DecodeErrorKind::Truncated))
            }
            _ => Err(self.fail(DecodeErrorKind::BadNumber(field))),
        }
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, DecodeError> {
        let rest = self.rest();
        if rest.starts_with("true") {
            self.pos += 4;
            Ok(true)
        } else if rest.starts_with("false") {
            self.pos += 5;
            Ok(false)
        } else if "true".starts_with(rest) || "false".starts_with(rest) {
            Err(self.fail(DecodeErrorKind::Truncated))
        } else {
            Err(self.fail(DecodeErrorKind::BadNumber(field)))
        }
    }

    /// Consumes a quoted label (the encoding never escapes).
    pub(crate) fn label(&mut self) -> Result<&'a str, DecodeError> {
        self.lit("\"")?;
        let rest = self.rest();
        let Some(end) = rest.find('"') else {
            return Err(self.fail(DecodeErrorKind::Truncated));
        };
        self.pos += end + 1;
        Ok(&rest[..end])
    }

    /// Consumes the closing brace, which must end the line.
    pub(crate) fn end(&mut self) -> Result<(), DecodeError> {
        self.lit("}")?;
        if self.pos != self.s.len() {
            return Err(self.fail(DecodeErrorKind::TrailingData));
        }
        Ok(())
    }
}

/// Appends `value` in decimal.
fn push_u64(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends an `f64` as a JSON value: its `Display` form, with negative
/// zero normalized to `0` for digest stability across platforms and
/// `null` for non-finite inputs, which JSON cannot represent.
fn push_f64(out: &mut Vec<u8>, value: f64) {
    if !value.is_finite() {
        out.extend_from_slice(b"null");
    } else if value == 0.0 {
        out.push(b'0');
    } else {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{value}");
    }
}

/// Formats an `f64` as a JSON value (`null` for non-finite inputs).
pub(crate) fn json_f64(value: f64) -> String {
    let mut out = Vec::new();
    push_f64(&mut out, value);
    String::from_utf8(out).expect("a formatted f64 is ASCII")
}

/// One field codec: how a value of this type is written after its key and
/// read back strictly.
pub(crate) trait Wire: Sized {
    /// Appends the value's canonical bytes.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the value; `key` names the field in errors.
    fn take(c: &mut Cursor<'_>, key: &'static str) -> Result<Self, DecodeError>;
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        push_u64(out, *self);
    }
    fn take(c: &mut Cursor<'_>, key: &'static str) -> Result<Self, DecodeError> {
        c.u64(key)
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        push_u64(out, u64::from(*self));
    }
    fn take(c: &mut Cursor<'_>, key: &'static str) -> Result<Self, DecodeError> {
        c.u32(key)
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        push_f64(out, *self);
    }
    fn take(c: &mut Cursor<'_>, key: &'static str) -> Result<Self, DecodeError> {
        c.f64_or_null(key)
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
    fn take(c: &mut Cursor<'_>, key: &'static str) -> Result<Self, DecodeError> {
        c.bool(key)
    }
}

/// Newtypes that travel as their raw integer: `Type(Raw, getter, constructor)`.
macro_rules! via_raw {
    ($($T:ident($Raw:ident, $get:ident, $make:ident)),* $(,)?) => {$(
        impl Wire for $T {
            fn put(&self, out: &mut Vec<u8>) {
                <$Raw as Wire>::put(&self.$get(), out);
            }
            fn take(c: &mut Cursor<'_>, key: &'static str) -> Result<Self, DecodeError> {
                <$Raw as Wire>::take(c, key).map($T::$make)
            }
        }
    )*};
}

via_raw! {
    SimTime(u64, as_micros, from_micros),
    SimDuration(u64, as_micros, from_micros),
    FunctionId(u32, as_u32, new),
    NodeId(u32, as_u32, new),
    MemoryMb(u32, as_mb, new),
    Cost(u64, as_picodollars, from_picodollars),
}

/// `slot,generation]`: the opening `[` belongs to the key token (see
/// `key_token!`), so a wrong or missing key fails at its comma.
impl Wire for WarmId {
    fn put(&self, out: &mut Vec<u8>) {
        push_u64(out, self.slot() as u64);
        out.push(b',');
        push_u64(out, u64::from(self.generation()));
        out.push(b']');
    }
    fn take(c: &mut Cursor<'_>, _key: &'static str) -> Result<Self, DecodeError> {
        let slot = c.u32("id.slot")?;
        c.lit(",")?;
        let generation = c.u32("id.generation")?;
        c.lit("]")?;
        Ok(WarmId::new(slot, generation))
    }
}

/// The bytes that open every line, before the quoted tag.
macro_rules! line_open {
    () => {
        "{\"t\":"
    };
}

/// A field's key token, `,"key":` — plus the `[` of the one array-valued
/// codec, `WarmId`.
macro_rules! key_token {
    (WarmId, $key:literal) => {
        concat!(",\"", $key, "\":[")
    };
    ($T:ident, $key:literal) => {
        concat!(",\"", $key, "\":")
    };
}

/// Declares the wire schema. Each item generates its Rust type (where the
/// crate owns it) and its codec; see `schema.rs` for the one invocation.
///
/// * `label Type { Variant = "label", .. }` — a foreign enum's labels.
/// * `label enum Type { Variant = "label", .. }` — an enum, its labels
///   and its `label()` method.
/// * `record struct Type { field: Codec = "key", .. }` — a struct whose
///   fields are flattened into the enclosing line, in key order.
/// * `line enum Type [with fn stamp() -> Codec] { Variant = "tag" { .. } }`
///   — one line type per variant: `{"t":"tag"` then each field in key
///   order (a field with no key is a flattened record), then `}`.
macro_rules! schema {
    () => {};

    (
        label $T:ident { $($V:ident = $label:literal),* $(,)? }
        $($rest:tt)*
    ) => {
        impl $crate::wire::Wire for $T {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(match self {
                    $($T::$V => concat!("\"", $label, "\""),)*
                }.as_bytes());
            }
            fn take(
                c: &mut $crate::wire::Cursor<'_>,
                key: &'static str,
            ) -> Result<Self, $crate::wire::DecodeError> {
                let at = c.pos();
                match c.label()? {
                    $($label => Ok($T::$V),)*
                    other => Err($crate::wire::DecodeError {
                        at,
                        kind: $crate::wire::DecodeErrorKind::BadLabel {
                            field: key,
                            found: other.to_string(),
                        },
                    }),
                }
            }
        }
        $crate::wire::schema!($($rest)*);
    };

    (
        $(#[$m:meta])*
        label enum $T:ident { $($(#[$vm:meta])* $V:ident = $label:literal),* $(,)? }
        $($rest:tt)*
    ) => {
        $(#[$m])*
        pub enum $T { $($(#[$vm])* $V,)* }

        impl $T {
            /// Stable lowercase label (used by the exporters).
            pub fn label(self) -> &'static str {
                match self { $($T::$V => $label,)* }
            }
        }

        $crate::wire::schema!(label $T { $($V = $label),* } $($rest)*);
    };

    (
        $(#[$m:meta])*
        record struct $R:ident {
            $($(#[$fm:meta])* $f:ident: $T:ident = $key:literal),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$m])*
        pub struct $R { $($(#[$fm])* pub $f: $T,)* }

        impl $crate::wire::Wire for $R {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::schema!(@put out, &self.$f, $T, $key);)*
            }
            fn take(
                c: &mut $crate::wire::Cursor<'_>,
                _key: &'static str,
            ) -> Result<Self, $crate::wire::DecodeError> {
                Ok($R { $($f: $crate::wire::schema!(@take c, $T, $key),)* })
            }
        }

        $crate::wire::schema!($($rest)*);
    };

    (
        $(#[$m:meta])*
        line enum $E:ident $(with fn $stamp:ident() -> $S:ident)? {
            $(
                $(#[$vm:meta])*
                $V:ident = $tag:literal {
                    $($(#[$fm:meta])* $f:ident: $T:ident $(= $key:literal)?),* $(,)?
                }
            ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$m])*
        pub enum $E { $($(#[$vm])* $V { $($(#[$fm])* $f: $T,)* },)* }

        impl $E {
            /// Stable lowercase type tag (the line's `"t"`).
            pub fn tag(&self) -> &'static str {
                match self { $($E::$V { .. } => $tag,)* }
            }

            /// Appends the canonical line, newline included.
            pub fn write_line(&self, out: &mut Vec<u8>) {
                match self {
                    $($E::$V { $($f),* } => {
                        out.extend_from_slice(concat!($crate::wire::line_open!(), "\"", $tag, "\"").as_bytes());
                        $($crate::wire::schema!(@put out, $f, $T $(, $key)?);)*
                    })*
                }
                out.extend_from_slice(b"}\n");
            }

            /// Reads the fields of the variant tagged `tag` (the cursor
            /// sits just past the tag); `None` for a tag of another type.
            pub(crate) fn take_fields(
                tag: &str,
                c: &mut $crate::wire::Cursor<'_>,
            ) -> Result<Option<Self>, $crate::wire::DecodeError> {
                Ok(Some(match tag {
                    $($tag => $E::$V { $($f: $crate::wire::schema!(@take c, $T $(, $key)?),)* },)*
                    _ => return Ok(None),
                }))
            }
        }

        $crate::wire::schema!(@stamp $E [$($stamp $S)?] [$($V)*]);
        $crate::wire::schema!($($rest)*);
    };

    (@stamp $E:ident [] [$($V:ident)*]) => {};
    (@stamp $E:ident [$stamp:ident $S:ident] [$($V:ident)*]) => {
        impl $E {
            /// The timestamp every variant carries.
            pub fn $stamp(&self) -> $S {
                match *self { $($E::$V { $stamp, .. })|* => $stamp }
            }
        }
    };

    (@put $out:ident, $v:expr, $T:ident, $key:literal) => {
        $out.extend_from_slice($crate::wire::key_token!($T, $key).as_bytes());
        $crate::wire::Wire::put($v, $out);
    };
    (@put $out:ident, $v:expr, $T:ident) => {
        $crate::wire::Wire::put($v, $out);
    };
    (@take $c:ident, $T:ident, $key:literal) => {{
        $c.lit($crate::wire::key_token!($T, $key))?;
        <$T as $crate::wire::Wire>::take($c, $key)?
    }};
    (@take $c:ident, $T:ident) => {
        <$T as $crate::wire::Wire>::take($c, "")?
    };
}

pub(crate) use {key_token, line_open, schema};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(-0.0), "0");
        assert_eq!(json_f64(0.25), "0.25");
    }
}
