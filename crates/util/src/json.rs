//! A small deterministic JSON writer.
//!
//! [`Obj`] appends fields to one `String` in call order, so a document's
//! field order is exactly the order its writer calls the builder in;
//! [`array()`] joins values that are already JSON. Every string, key or
//! value, is escaped (`"`, `\` and the control characters below U+0020);
//! floats use Rust's shortest-roundtrip `Display`, so an integral float
//! prints as `1`, and non-finite floats are written as `null`. No wall
//! clock, locale or hash order is consulted, so the same value always
//! yields the same bytes.
//!
//! # Examples
//!
//! ```
//! use shoggoth_util::json::{self, Obj};
//!
//! let doc = Obj::new()
//!     .text("name", "Fixed(0.5)")
//!     .num("map50", 0.25)
//!     .raw("series", &json::array([json::num(1.0), json::num(f64::NAN)]))
//!     .finish();
//! assert_eq!(doc, r#"{"name":"Fixed(0.5)","map50":0.25,"series":[1,null]}"#);
//! ```

/// `v` as a JSON number, or `null` when it is not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_owned()
    }
}

/// `s` as a quoted JSON string.
pub fn text(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of values that are already JSON.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// A JSON array of numbers.
pub fn nums(values: &[f64]) -> String {
    array(values.iter().map(|&v| num(v)))
}

/// A JSON array of `[x, y]` number pairs.
pub fn pairs(values: &[(f64, f64)]) -> String {
    array(values.iter().map(|&(x, y)| array([num(x), num(y)])))
}

/// A JSON object under construction: `{` plus the fields written so far.
#[derive(Debug, Clone)]
pub struct Obj {
    buf: String,
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
        }
    }

    /// Adds a field whose value is already JSON: a nested object from
    /// [`Obj::finish`], an [`array()`], or a [`num`]/[`text`] value.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push_str(&text(key));
        self.buf.push(':');
        self.buf.push_str(json);
        self
    }

    /// Adds a float field (`null` when not finite).
    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, &num(v))
    }

    /// Adds an optional float field (`null` when absent or not finite).
    pub fn opt_num(self, key: &str, v: Option<f64>) -> Self {
        self.num(key, v.unwrap_or(f64::NAN))
    }

    /// Adds an integer field.
    pub fn int(self, key: &str, v: u64) -> Self {
        self.raw(key, &v.to_string())
    }

    /// Adds a boolean field.
    pub fn flag(self, key: &str, v: bool) -> Self {
        self.raw(key, if v { "true" } else { "false" })
    }

    /// Adds an escaped string field.
    pub fn text(self, key: &str, v: &str) -> Self {
        self.raw(key, &text(v))
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_and_backslashes_are_escaped() {
        let doc = Obj::new().text("k\"ey", r#"a"b\c"#).finish();
        assert_eq!(doc, r#"{"k\"ey":"a\"b\\c"}"#);
    }

    #[test]
    fn control_characters_are_unicode_escaped() {
        assert_eq!(text("a\nb\t\u{1f}\u{0}"), r#""a\u000ab\u0009\u001f\u0000""#);
    }

    #[test]
    fn non_ascii_text_passes_through() {
        assert_eq!(text("φ → α"), "\"φ → α\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(
            nums(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            "[null,null,null]"
        );
        let doc = Obj::new()
            .num("nan", f64::NAN)
            .opt_num("none", None)
            .opt_num("inf", Some(f64::INFINITY))
            .finish();
        assert_eq!(doc, r#"{"nan":null,"none":null,"inf":null}"#);
    }

    #[test]
    fn floats_use_shortest_roundtrip_display() {
        assert_eq!(
            nums(&[1.0, -0.5, 0.1, 1e-7, 123_456.0, 0.1 + 0.2]),
            "[1,-0.5,0.1,0.0000001,123456,0.30000000000000004]"
        );
    }

    #[test]
    fn nested_object_inside_an_array() {
        let inner = Obj::new().int("n", 3).flag("ok", true).finish();
        let doc = Obj::new()
            .raw("items", &array([inner, 7.to_string()]))
            .raw("empty", &array([]))
            .raw("none", &Obj::new().finish())
            .finish();
        assert_eq!(
            doc,
            r#"{"items":[{"n":3,"ok":true},7],"empty":[],"none":{}}"#
        );
    }

    #[test]
    fn pairs_are_two_element_arrays() {
        assert_eq!(
            pairs(&[(0.5, 30.0), (1.0, f64::NAN)]),
            "[[0.5,30],[1,null]]"
        );
    }
}
