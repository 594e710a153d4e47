//! The one reader of the JSON this workspace writes to be read back: a
//! flat object per line, as in an event stream (`events_jsonl`), a flight
//! dump's `events` array or a report's `BENCH_<name>.json`. Each value is
//! an unsigned integer, another number or a string; [`JsonValue::json`]
//! writes the same values.

/// A scalar of a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// An unsigned integer (vertex counts, PEs, message counts).
    Int(u64),
    /// Any other number (wall times, ratios): written with one decimal,
    /// and as `null` when not finite, which reads back as NaN.
    Float(f64),
    /// A string (benchmark names, labels).
    Str(String),
}

impl JsonValue {
    /// The value as JSON.
    pub fn json(&self) -> String {
        match self {
            JsonValue::Int(n) => n.to_string(),
            JsonValue::Float(x) if x.is_finite() => format!("{x:.1}"),
            JsonValue::Float(_) => "null".to_string(),
            JsonValue::Str(s) => format!("\"{}\"", dgr_telemetry::json_escape(s)),
        }
    }

    /// The value as a number, if it is one.
    pub fn number(&self) -> Option<f64> {
        match *self {
            JsonValue::Int(n) => Some(n as f64),
            JsonValue::Float(x) => Some(x),
            JsonValue::Str(_) => None,
        }
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                JsonValue::Int(n as u64)
            }
        }
    )*};
}
int_from!(u64, u32, u16, usize, bool);

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Float(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

/// The fields of one line holding a flat JSON object, in order. A
/// trailing comma (an array element) is allowed; anything else — array
/// brackets, a nested value, a truncated line — is `None`.
pub fn read_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let line = line.trim().trim_end_matches(',');
    let mut rest = line.strip_prefix('{')?.trim_start();
    let mut fields = Vec::new();
    if rest == "}" {
        return Some(fields);
    }
    loop {
        let (key, after) = read_string(rest.strip_prefix('"')?)?;
        rest = after.trim_start().strip_prefix(':')?.trim_start();
        let value = if let Some(s) = rest.strip_prefix('"') {
            let (s, after) = read_string(s)?;
            rest = after;
            JsonValue::Str(s)
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            let token = rest[..end].trim();
            rest = &rest[end..];
            match token {
                "null" => JsonValue::Float(f64::NAN),
                _ if token.bytes().all(|b| b.is_ascii_digit()) => {
                    JsonValue::Int(token.parse().ok()?)
                }
                _ => JsonValue::Float(token.parse().ok().filter(|x: &f64| x.is_finite())?),
            }
        };
        fields.push((key, value));
        match rest.trim_start().strip_prefix(',') {
            Some(after) => rest = after.trim_start(),
            None => return (rest.trim_start() == "}").then_some(fields),
        }
    }
}

/// The value of `key` among `fields`.
pub fn field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A string's text after its opening quote, unescaped, and the line after
/// its closing quote.
fn read_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => out.push(match chars.next()?.1 {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'u' => {
                    let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                other => other,
            }),
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_written_object_reads_back() {
        let fields = [
            ("label".to_string(), JsonValue::from("a, b} \"c\"\n\\ é")),
            ("messages".to_string(), JsonValue::from(12u64)),
            ("wall_us".to_string(), JsonValue::from(3.5)),
            ("ratio".to_string(), JsonValue::from(f64::NAN)),
        ];
        let body: Vec<String> = (fields.iter())
            .map(|(k, v)| format!("\"{k}\": {}", v.json()))
            .collect();
        let line = format!("  {{{}}},", body.join(", "));
        let back = read_object(&line).expect("one object");
        assert_eq!(back[..3], fields[..3]);
        assert!(matches!(back[3].1, JsonValue::Float(x) if x.is_nan()));
        assert_eq!(field(&back, "messages"), Some(&JsonValue::Int(12)));
        assert_eq!(read_object("{}"), Some(vec![]));
    }

    #[test]
    fn anything_but_a_flat_object_is_refused() {
        for bad in [
            "[",
            "]",
            "",
            "{\"a\": 1",
            "{\"a\": \"open}",
            "{\"a\": [1]}",
            "{\"a\": {\"b\": 1}}",
            "{\"a\": 1} x",
            "{\"a\": true}",
            "{\"a\": -}",
            "{a: 1}",
        ] {
            assert_eq!(read_object(bad), None, "{bad:?}");
        }
        assert_eq!(
            read_object("{\"n\": -2, \"x\": 1e3}"),
            Some(vec![
                ("n".to_string(), JsonValue::Float(-2.0)),
                ("x".to_string(), JsonValue::Float(1000.0)),
            ])
        );
    }
}
