//! The one JSON writer: every document the workspace emits is rendered
//! through [`JsonWriter`], which alone places punctuation. Output is
//! compact. Strings escape `"`, `\`, `\n`, `\r`, `\t` and other control
//! characters (as `\u00XX`) and pass everything else through. Integers
//! are written as they are; a float as `{}` writes it (the shortest string
//! that reads back to the same value), or `0` when it is not finite.

use std::fmt::Write as _;

/// A value the writer can emit as one JSON token.
pub trait Scalar {
    /// Appends the token to `out`.
    fn write_to(&self, out: &mut String);
}

macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_scalar!(u32, u64, usize, bool);

impl Scalar for f64 {
    fn write_to(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push('0');
        }
    }
}

impl Scalar for str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Scalar for String {
    fn write_to(&self, out: &mut String) {
        self.as_str().write_to(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

/// A compact JSON document under construction. See the module docs.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value follows a sibling (needs a comma).
    after_value: bool,
}

impl JsonWriter {
    /// An empty document.
    #[must_use]
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// The rendered document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.after_value {
            self.out.push(',');
        }
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        key.write_to(&mut self.out);
        self.out.push(':');
        self.after_value = false;
        self
    }

    /// Writes one scalar value.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        self.separate();
        v.write_to(&mut self.out);
        self.after_value = true;
        self
    }

    /// Writes `key` and its scalar value.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self.after_value = true;
        self
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.after_value = false;
        body(self);
        self.out.push(close);
        self.after_value = true;
        self
    }

    /// Writes an object whose keys and values `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// Writes an array whose values `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', body)
    }
}
