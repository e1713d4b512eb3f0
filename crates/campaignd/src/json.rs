//! A minimal JSON tree: enough for campaign specs and the newline-delimited
//! control protocol, with one property the service actually depends on —
//! **numbers keep their source lexeme**, so a 64-bit campaign seed round-trips
//! exactly instead of being laundered through an `f64`.
//!
//! The workspace is offline (every dependency is an in-repo path), so this is
//! hand-rolled rather than pulled in; it parses strict JSON (RFC 8259) minus
//! nothing we emit: escapes, nested containers, exponents all work.

/// A parsed JSON value. Object keys keep insertion order (specs serialize
/// deterministically).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, stored as its source lexeme (`"18446744073709551615"`
    /// stays exact; accessors parse on demand).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. A
/// `submit` request nests 3 deep; the cap bounds the parser's recursion,
/// and so the stack a connection thread needs, whatever a line holds.
pub const MAX_DEPTH: usize = 64;

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error, and so
    /// is nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This number as an exact `u64`. Accepts a numeric lexeme or a string
    /// of digits (large seeds are often quoted to survive other tools).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(lexeme) => lexeme.parse().ok(),
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// This number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(lexeme) => lexeme.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build a number from a `u64` (exact).
    pub fn num(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Build a number from an `f64` (shortest round-trip form).
    pub fn float(v: f64) -> Json {
        Json::Num(format!("{v:?}"))
    }

    /// Build a string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Serialize (compact, single line, fields in stored order).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(lexeme) => out.push_str(lexeme),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&telemetry::json_escape(s));
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .to_string();
        if lexeme.is_empty() || lexeme == "-" || lexeme.parse::<f64>().is_err() {
            return Err(format!("bad number at byte {start}"));
        }
        Ok(Json::Num(lexeme))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Accept surrogate pairs; lone surrogates
                            // become U+FFFD rather than failing the spec,
                            // and an escape after a lone high one stands
                            // on its own.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                self.low_surrogate().map_or('\u{fffd}', |low| {
                                    let pair = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(pair).expect("a surrogate pair is a scalar")
                                })
                            } else {
                                char::from_u32(cp).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    let c = rest.chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control char at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// Consume a `\uXXXX` escape of a low surrogate, if one is next.
    fn low_surrogate(&mut self) -> Option<u32> {
        let start = self.pos;
        if self.bytes[start..].starts_with(b"\\u") {
            self.pos += 2;
            match self.hex4() {
                Ok(low) if (0xdc00..0xe000).contains(&low) => return Some(low),
                _ => self.pos = start,
            }
        }
        None
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(chunk).map_err(|_| "bad \\u escape".to_string())?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_reserializes_structures() {
        let text = r#"{"name":"night-sweep","seed":18446744073709551615,"loss":[0.0,0.01],"on":true,"note":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("night-sweep"));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(
            v.get("loss").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(0.01)
        );
        assert_eq!(v.get("on").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("note"), Some(&Json::Null));
        // Round trip is exact — including the u64 that f64 cannot hold.
        assert_eq!(Json::parse(&v.to_text()).unwrap(), v);
        assert!(v.to_text().contains("18446744073709551615"));
    }

    #[test]
    fn handles_escapes_and_rejects_malformed_input() {
        let v = Json::parse(r#"["a\"b\\c\nAé"]"#).unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some("a\"b\\c\nAé"));
        let reparsed = Json::parse(&v.to_text()).unwrap();
        assert_eq!(reparsed, v);

        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "01x",
            "nul",
            "\"open",
            "{\"a\":1,\"a\":2}",
            "[1] trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let objects = |n: usize| format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
        // Siblings do not add up: depth is nesting, not container count.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn numbers_accept_exponent_forms() {
        assert_eq!(Json::parse("2.5e-4").unwrap().as_f64(), Some(0.00025));
        assert_eq!(Json::parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(Json::float(0.0005).to_text(), "0.0005");
    }
}
