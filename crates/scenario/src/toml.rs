//! A self-contained parser for the TOML subset scenario files use.
//!
//! The build container has no crates.io access, so — like the `serde` /
//! `serde_derive` stand-ins under `crates/compat` — this is a small hand-rolled
//! implementation of exactly the slice of TOML the scenario format needs:
//!
//! * `[table]` / `[table.sub]` headers and dotted keys (`sweep.xi = [...]`),
//! * basic strings (`"..."` with `\"`, `\\`, `\n`, `\t`, `\r` escapes),
//! * integers and floats (with `_` separators), booleans,
//! * single-line arrays (`[1, 2, 3]`, trailing comma allowed, nestable),
//! * `#` comments (full-line and trailing).
//!
//! Not supported (rejected with an error, never silently misread): multi-line
//! strings and arrays, literal `'...'` strings, inline `{...}` tables,
//! `[[array-of-tables]]`, dates/times. Every error carries the 1-based line
//! number it was detected on, and duplicate keys/tables are hard errors —
//! a spec that parses is unambiguous.

use crate::ScenarioError;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic (double-quoted) string.
    Str(String),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A (possibly nested) array.
    Array(Vec<Value>),
}

impl Value {
    /// Human-readable type name for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// A value plus the line it was written on (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The parsed value.
    pub value: Value,
    /// 1-based source line of the `key = value` assignment.
    pub line: usize,
}

/// One node of the document tree: a leaf value or a nested table.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// `key = value`.
    Value(Entry),
    /// `[table]` (or a table created implicitly by a dotted path).
    Table(TomlTable),
}

/// An insertion-ordered table of key → node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlTable {
    /// 1-based line the table first appeared on (0 for the root).
    pub line: usize,
    /// Whether the table was opened by an explicit `[header]` (duplicate
    /// explicit headers are rejected; implicit parents may be opened later).
    explicit: bool,
    entries: Vec<(String, Node)>,
}

impl TomlTable {
    /// Look up a direct child.
    pub fn get(&self, key: &str) -> Option<&Node> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, n)| n)
    }

    /// The table's keys with the line each child was defined on, in
    /// insertion order.
    pub fn keys(&self) -> impl Iterator<Item = (&str, usize)> {
        self.entries.iter().map(|(k, n)| {
            let line = match n {
                Node::Value(e) => e.line,
                Node::Table(t) => t.line,
            };
            (k.as_str(), line)
        })
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn get_mut(&mut self, key: &str) -> Option<&mut Node> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, n)| n)
    }

    /// Walk (creating as needed) the table at `path`. `explicit` marks the
    /// final segment as opened by a `[header]`.
    fn ensure_table(
        &mut self,
        path: &[String],
        line: usize,
        explicit: bool,
    ) -> Result<&mut TomlTable, ScenarioError> {
        let mut cur = self;
        for (depth, seg) in path.iter().enumerate() {
            let last = depth + 1 == path.len();
            let created = cur.get(seg).is_none();
            if created {
                cur.entries.push((
                    seg.clone(),
                    Node::Table(TomlTable {
                        line,
                        explicit: explicit && last,
                        entries: Vec::new(),
                    }),
                ));
            }
            let node = cur.get_mut(seg).expect("just ensured");
            cur = match node {
                Node::Table(t) => {
                    if last && explicit && !created {
                        if t.explicit {
                            return Err(ScenarioError::at(
                                line,
                                format!(
                                    "duplicate table header `[{}]` (first defined at line {})",
                                    path.join("."),
                                    t.line
                                ),
                            ));
                        }
                        t.explicit = true;
                    }
                    t
                }
                Node::Value(e) => {
                    return Err(ScenarioError::at(
                        line,
                        format!(
                            "`{seg}` is already a value (line {}), cannot reuse it as a table",
                            e.line
                        ),
                    ));
                }
            };
        }
        Ok(cur)
    }

    fn insert_value(&mut self, key: &str, value: Value, line: usize) -> Result<(), ScenarioError> {
        if let Some(existing) = self.get(key) {
            let prev = match existing {
                Node::Value(e) => e.line,
                Node::Table(t) => t.line,
            };
            return Err(ScenarioError::at(
                line,
                format!("duplicate key `{key}` (first defined at line {prev})"),
            ));
        }
        self.entries
            .push((key.to_string(), Node::Value(Entry { value, line })));
        Ok(())
    }
}

/// Parse a scenario document into its root table.
pub fn parse(src: &str) -> Result<TomlTable, ScenarioError> {
    let mut root = TomlTable::default();
    let mut current_path: Vec<String> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            if rest.starts_with('[') {
                return Err(ScenarioError::at(
                    line_no,
                    "arrays of tables (`[[...]]`) are not part of the scenario TOML subset"
                        .to_string(),
                ));
            }
            let close = rest.find(']').ok_or_else(|| {
                ScenarioError::at(line_no, "unclosed table header (missing `]`)".to_string())
            })?;
            let after = rest[close + 1..].trim();
            if !after.is_empty() && !after.starts_with('#') {
                return Err(ScenarioError::at(
                    line_no,
                    format!("unexpected characters after table header: `{after}`"),
                ));
            }
            let path = parse_dotted_key(rest[..close].trim(), line_no)?;
            root.ensure_table(&path, line_no, true)?;
            current_path = path;
            continue;
        }
        let eq = line.find('=').ok_or_else(|| {
            ScenarioError::at(
                line_no,
                format!("expected `key = value` or `[table]`, found `{line}`"),
            )
        })?;
        let key_path = parse_dotted_key(line[..eq].trim(), line_no)?;
        let mut cursor = Cursor::new(&line[eq + 1..], line_no);
        let value = cursor.parse_value(0)?;
        cursor.expect_end()?;
        let (leaf, parents) = key_path.split_last().expect("key path is non-empty");
        let mut full_parent = current_path.clone();
        full_parent.extend(parents.iter().cloned());
        let table = root.ensure_table(&full_parent, line_no, false)?;
        table.insert_value(leaf, value, line_no)?;
    }
    Ok(root)
}

/// Split a `a.b.c` dotted key into validated bare-key segments.
fn parse_dotted_key(s: &str, line: usize) -> Result<Vec<String>, ScenarioError> {
    if s.is_empty() {
        return Err(ScenarioError::at(line, "empty key".to_string()));
    }
    s.split('.')
        .map(|seg| {
            let seg = seg.trim();
            let valid = !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
            if valid {
                Ok(seg.to_string())
            } else {
                Err(ScenarioError::at(
                    line,
                    format!(
                        "invalid key segment `{seg}` in `{s}` \
                         (bare keys: letters, digits, `_`, `-`)"
                    ),
                ))
            }
        })
        .collect()
}

/// The deepest array nesting a value may have. No spec key accepts an array
/// of arrays; the cap keeps the recursive descent off the end of the stack.
const MAX_DEPTH: usize = 32;

/// Character cursor over the value part of one line.
struct Cursor<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    src: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str, line: usize) -> Self {
        Self {
            chars: s.chars().collect(),
            pos: 0,
            line,
            src: s,
        }
    }

    fn err(&self, msg: String) -> ScenarioError {
        ScenarioError::at(self.line, msg)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.pos += 1;
        }
    }

    /// After the top-level value: only whitespace or a trailing comment may
    /// remain.
    fn expect_end(&mut self) -> Result<(), ScenarioError> {
        self.skip_ws();
        match self.peek() {
            None | Some('#') => Ok(()),
            Some(_) => Err(self.err(format!(
                "unexpected trailing characters after value: `{}`",
                self.chars[self.pos..].iter().collect::<String>().trim()
            ))),
        }
    }

    /// `depth` counts the arrays this value sits in.
    fn parse_value(&mut self, depth: usize) -> Result<Value, ScenarioError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("missing value after `=`".to_string())),
            Some('"') => self.parse_string(),
            Some('[') if depth == MAX_DEPTH => {
                Err(self.err(format!("arrays nested deeper than {MAX_DEPTH} levels")))
            }
            Some('[') => self.parse_array(depth),
            Some('\'') => Err(self.err(
                "literal strings (`'...'`) are not part of the scenario TOML subset; \
                 use a double-quoted string"
                    .to_string(),
            )),
            Some('{') => Err(self.err(
                "inline tables (`{...}`) are not part of the scenario TOML subset; \
                 use a `[table]` header"
                    .to_string(),
            )),
            Some(_) => self.parse_scalar_token(),
        }
    }

    fn parse_string(&mut self) -> Result<Value, ScenarioError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => {
                    return Err(self.err(format!("unterminated string in `{}`", self.src.trim())))
                }
                Some('"') => return Ok(Value::Str(out)),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some(c) => {
                        return Err(self.err(format!(
                            "unsupported string escape `\\{c}` \
                             (supported: \\\" \\\\ \\n \\t \\r)"
                        )))
                    }
                    None => return Err(self.err("unterminated string escape".to_string())),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, ScenarioError> {
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => {
                    return Err(self.err(
                        "unterminated array (scenario arrays must fit on one line)".to_string(),
                    ))
                }
                Some(']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                _ => {}
            }
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {}
                None => {
                    return Err(self.err(
                        "unterminated array (scenario arrays must fit on one line)".to_string(),
                    ))
                }
                Some(c) => {
                    return Err(self.err(format!("expected `,` or `]` in array, found `{c}`")))
                }
            }
        }
    }

    /// Bare scalar: boolean, integer or float.
    fn parse_scalar_token(&mut self) -> Result<Value, ScenarioError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == ',' || c == ']' || c == '#' || c == ' ' || c == '\t' {
                break;
            }
            self.pos += 1;
        }
        let token: String = self.chars[start..self.pos].iter().collect();
        match token.as_str() {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            _ => {}
        }
        let numeric = token.replace('_', "");
        let looks_float = numeric.contains(['.', 'e', 'E'])
            || matches!(numeric.as_str(), "inf" | "+inf" | "-inf" | "nan");
        if looks_float {
            if let Ok(f) = numeric.parse::<f64>() {
                return Ok(Value::Float(f));
            }
        } else if let Ok(i) = numeric.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        Err(self.err(format!(
            "invalid value `{token}` (strings must be double-quoted; \
             numbers and booleans are the only bare scalars)"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf<'t>(t: &'t TomlTable, path: &[&str]) -> &'t Value {
        let mut cur = t;
        for (i, seg) in path.iter().enumerate() {
            match cur.get(seg) {
                Some(Node::Table(t)) => cur = t,
                Some(Node::Value(e)) if i + 1 == path.len() => return &e.value,
                other => panic!("path {path:?} broke at `{seg}`: {other:?}"),
            }
        }
        panic!("path {path:?} names a table, not a value");
    }

    #[test]
    fn parses_tables_keys_and_scalar_types() {
        let doc = parse(concat!(
            "# a scenario\n",
            "top = \"level\"\n",
            "[scenario]\n",
            "name = \"fig3\"          # trailing comment\n",
            "seeds = 3\n",
            "xi = 0.3\n",
            "big = 1_000_000\n",
            "neg = -2.5e-3\n",
            "on = true\n",
            "off = false\n",
            "[system.sgd]\n",
            "batch = 16\n",
        ))
        .unwrap();
        assert_eq!(leaf(&doc, &["top"]), &Value::Str("level".to_string()));
        assert_eq!(
            leaf(&doc, &["scenario", "name"]),
            &Value::Str("fig3".to_string())
        );
        assert_eq!(leaf(&doc, &["scenario", "seeds"]), &Value::Int(3));
        assert_eq!(leaf(&doc, &["scenario", "xi"]), &Value::Float(0.3));
        assert_eq!(leaf(&doc, &["scenario", "big"]), &Value::Int(1_000_000));
        assert_eq!(leaf(&doc, &["scenario", "neg"]), &Value::Float(-2.5e-3));
        assert_eq!(leaf(&doc, &["scenario", "on"]), &Value::Bool(true));
        assert_eq!(leaf(&doc, &["scenario", "off"]), &Value::Bool(false));
        assert_eq!(leaf(&doc, &["system", "sgd", "batch"]), &Value::Int(16));
    }

    #[test]
    fn parses_dotted_keys_and_arrays() {
        let doc = parse(concat!(
            "[sweep]\n",
            "xi = [0.1, 0.3, 1.0,]\n",
            "num_workers = [10, 20]\n",
            "empty = []\n",
            "nested = [[1, 2], [3]]\n",
            "[run]\n",
            "sub.key = \"dotted\"\n",
        ))
        .unwrap();
        assert_eq!(
            leaf(&doc, &["sweep", "xi"]),
            &Value::Array(vec![
                Value::Float(0.1),
                Value::Float(0.3),
                Value::Float(1.0)
            ])
        );
        assert_eq!(
            leaf(&doc, &["sweep", "num_workers"]),
            &Value::Array(vec![Value::Int(10), Value::Int(20)])
        );
        assert_eq!(leaf(&doc, &["sweep", "empty"]), &Value::Array(vec![]));
        assert_eq!(
            leaf(&doc, &["sweep", "nested"]),
            &Value::Array(vec![
                Value::Array(vec![Value::Int(1), Value::Int(2)]),
                Value::Array(vec![Value::Int(3)]),
            ])
        );
        assert_eq!(
            leaf(&doc, &["run", "sub", "key"]),
            &Value::Str("dotted".to_string())
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = parse("s = \"a \\\"b\\\" \\n\\t\\\\ c\"\n").unwrap();
        assert_eq!(
            leaf(&doc, &["s"]),
            &Value::Str("a \"b\" \n\t\\ c".to_string())
        );
    }

    #[test]
    fn duplicate_keys_are_rejected_with_both_lines() {
        let err = parse("a = 1\nb = 2\na = 3\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.msg.contains("duplicate key `a`"), "{}", err.msg);
        assert!(err.msg.contains("line 1"), "{}", err.msg);
    }

    #[test]
    fn duplicate_table_headers_are_rejected() {
        let err = parse("[run]\na = 1\n[run]\nb = 2\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.msg.contains("duplicate table header"), "{}", err.msg);
        // …but an implicit parent may be opened explicitly later.
        let ok = parse("[a.b]\nx = 1\n[a]\ny = 2\n").unwrap();
        assert_eq!(leaf(&ok, &["a", "y"]), &Value::Int(2));
    }

    #[test]
    fn key_value_table_collisions_are_rejected() {
        let err = parse("a = 1\n[a]\nb = 2\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("already a value"), "{}", err.msg);
        // A table header under an existing value collides too.
        let err = parse("[a]\nb = 1\n[a.b]\nc = 2\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.msg.contains("already a value"), "{}", err.msg);
        // …while a dotted key inside another table is a different path.
        assert!(parse("[a]\nb = 1\n[c]\na.b = 2\n").is_ok());
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        for (src, line, needle) in [
            ("a = \n", 1, "missing value"),
            ("x = 1\ny 2\n", 2, "expected `key = value`"),
            ("a = \"unterminated\n", 1, "unterminated string"),
            ("a = [1, 2\n", 1, "unterminated array"),
            ("a = quick\n", 1, "double-quoted"),
            ("a = 1 2\n", 1, "trailing characters"),
            ("a = 'literal'\n", 1, "literal strings"),
            ("a = {x = 1}\n", 1, "inline tables"),
            ("[[jobs]]\n", 1, "arrays of tables"),
            ("[unclosed\n", 1, "unclosed table header"),
            ("bad!key = 1\n", 1, "invalid key segment"),
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!(err.line, Some(line), "{src:?}");
            assert!(err.msg.contains(needle), "{src:?} -> {}", err.msg);
        }
    }

    #[test]
    fn array_nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |n: usize| format!("x = {}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        for deep in [
            nested(MAX_DEPTH + 1),
            format!("name = {}", "[".repeat(100_000)),
        ] {
            let err = parse(&deep).unwrap_err();
            assert_eq!(err.line, Some(1));
            assert!(err.msg.contains("nested deeper"), "{}", err.msg);
        }
    }

    #[test]
    fn keys_iterate_in_insertion_order() {
        let doc = parse("b = 1\na = 2\n[t]\nz = 3\n").unwrap();
        let keys: Vec<&str> = doc.keys().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["b", "a", "t"]);
    }
}
