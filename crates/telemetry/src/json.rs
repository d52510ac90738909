//! The one JSON string escaper of the workspace.

use std::fmt;

/// `s` as the inside of a JSON string literal, written straight into the
/// formatter: `"` and `\` are escaped, `\n`, `\r` and `\t` take their short
/// forms and every other character below U+0020 is `\u00XX`. Everything
/// else, non-ASCII included, is written as it is.
///
/// ```
/// use scalesim_telemetry::JsonStr;
///
/// assert_eq!(JsonStr("a \"b\"\t\u{1}").to_string(), r#"a \"b\"\t\u0001"#);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JsonStr<'a>(pub &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut plain = 0;
        for (i, c) in self.0.char_indices() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                c if c < ' ' => None,
                _ => continue,
            };
            f.write_str(&self.0[plain..i])?;
            match short {
                Some(short) => f.write_str(short)?,
                None => write!(f, "\\u{:04x}", c as u32)?,
            }
            // Every escaped character is one byte.
            plain = i + 1;
        }
        f.write_str(&self.0[plain..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_what_json_requires_and_nothing_else() {
        let esc = |s: &str| JsonStr(s).to_string();
        assert_eq!(esc(r#"a "b" \c"#), r#"a \"b\" \\c"#);
        assert_eq!(esc("\n\r\t"), r"\n\r\t");
        assert_eq!(esc("\u{0}\u{1}\u{1f}"), r"\u0000\u0001\u001f");
        // DEL, `/` and non-ASCII are legal inside a JSON string.
        assert_eq!(esc("\u{7f}/µs→"), "\u{7f}/µs→");
        assert_eq!(esc(""), "");
        assert_eq!(esc("µ\"→\n"), "µ\\\"→\\n");
    }
}
