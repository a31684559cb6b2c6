//! The unified report tree.
//!
//! A [`Report`] is an insertion-ordered mapping from string keys to
//! [`Value`]s; a value can itself be a nested tree, so a whole run's
//! measurements — store stats, cache tiers, per-worker counters, trace
//! events — merge into one structure with one serialisation surface
//! ([`Value::render_json`], the canonical JSON encoding every bench dump
//! uses). Insertion order is preserved so the emitting layer controls
//! field order and snapshots stay byte-stable.

/// One value in a [`Report`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An absent value (`null`).
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (counters, counts, bytes).
    UInt(u64),
    /// A signed integer (deltas).
    Int(i64),
    /// A float (ratios, means, seconds).
    Float(f64),
    /// A string (names, labels).
    Str(String),
    /// An ordered list.
    List(Vec<Value>),
    /// A nested report subtree.
    Tree(Report),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Report> for Value {
    fn from(v: Report) -> Self {
        Value::Tree(v)
    }
}

impl Value {
    /// The canonical JSON encoding: pretty-printed with two-space
    /// indentation, keys in insertion order, a trailing newline.
    /// Unsigned integers stay exact, floats stay visibly float-typed
    /// (`1.0`, never `1`), and non-finite floats render as `null`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(f) if f.is_finite() => {
                let text = f.to_string();
                out.push_str(&text);
                if !text.contains('.') {
                    out.push_str(".0");
                }
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => write_json_str(out, s),
            Value::List(items) => write_json_seq(out, indent, '[', ']', items, |out, item| {
                item.write_json(out, indent + 1);
            }),
            Value::Tree(tree) => {
                write_json_seq(out, indent, '{', '}', &tree.entries, |out, (key, value)| {
                    write_json_str(out, key);
                    out.push_str(": ");
                    value.write_json(out, indent + 1);
                })
            }
        }
    }
}

/// Writes `items` one per line between `open` and `close`, indented one
/// level deeper than `indent` (`[]` / `{}` when empty).
fn write_json_seq<T>(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&"  ".repeat(indent + 1));
        write_item(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An insertion-ordered key → [`Value`] tree. Setting an existing key
/// overwrites in place (order unchanged).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    entries: Vec<(String, Value)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Sets `key` to `value`, overwriting in place if present.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        let value = value.into();
        if let Some(entry) = self.entries.iter_mut().find(|(k, _)| k == key) {
            entry.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
    }

    /// Sets `key` to a nested subtree.
    pub fn set_tree(&mut self, key: &str, tree: Report) {
        self.set(key, Value::Tree(tree));
    }

    /// The value at `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The subtree at `key`, if it is a tree.
    pub fn get_tree(&self, key: &str) -> Option<&Report> {
        match self.get(key) {
            Some(Value::Tree(t)) => Some(t),
            _ => None,
        }
    }

    /// The value at a `/`-separated path through nested trees
    /// (e.g. `"store/requests"`).
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut value = self.get(first)?;
        for part in parts {
            match value {
                Value::Tree(t) => value = t.get(part)?,
                _ => return None,
            }
        }
        Some(value)
    }

    /// The value at `path` as `u64`, if it is a `UInt`.
    pub fn get_u64(&self, path: &str) -> Option<u64> {
        match self.get_path(path)? {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value at `path` as `f64`, if numeric.
    pub fn get_f64(&self, path: &str) -> Option<f64> {
        match self.get_path(path)? {
            Value::Float(f) => Some(*f),
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, Value)> {
        self.entries.iter()
    }

    /// Number of top-level entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the report has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `other`'s entries into `self` (overwriting shared keys in
    /// place, appending new ones).
    pub fn merge(&mut self, other: Report) {
        for (k, v) in other.entries {
            self.set(&k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_preserved_and_overwrite_is_in_place() {
        let mut r = Report::new();
        r.set("z", 1u64);
        r.set("a", 2u64);
        r.set("m", "mid");
        r.set("z", 9u64); // overwrite must not move "z" to the back
        let keys: Vec<&str> = r.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
        assert_eq!(r.get_u64("z"), Some(9));
    }

    #[test]
    fn nested_path_lookup() {
        let mut store = Report::new();
        store.set("requests", 42u64);
        store.set("mean_value_bytes", 12.5);
        let mut root = Report::new();
        root.set_tree("store", store);
        assert_eq!(root.get_u64("store/requests"), Some(42));
        assert_eq!(root.get_f64("store/mean_value_bytes"), Some(12.5));
        assert_eq!(root.get_path("store/missing"), None);
        assert_eq!(root.get_path("nope/requests"), None);
        assert!(root.get_tree("store").is_some());
    }

    #[test]
    fn merge_overwrites_shared_keys_and_appends_new() {
        let mut a = Report::new();
        a.set("x", 1u64);
        a.set("y", 2u64);
        let mut b = Report::new();
        b.set("y", 20u64);
        b.set("z", 30u64);
        a.merge(b);
        let keys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["x", "y", "z"]);
        assert_eq!(a.get_u64("y"), Some(20));
    }

    #[test]
    fn json_rendering_is_canonical() {
        let mut inner = Report::new();
        inner.set("k", 9u64);
        let mut r = Report::new();
        r.set("flag", true);
        r.set("big", u64::MAX);
        r.set("delta", -3i64);
        r.set("ratio", 0.25);
        r.set("whole", 2.0);
        r.set("nan", f64::NAN);
        r.set("none", Value::Null);
        r.set("name", "a\"b\\c\nd");
        r.set("list", Value::List(vec![Value::UInt(1), Value::UInt(2)]));
        r.set("empty", Value::List(Vec::new()));
        r.set_tree("tree", inner);
        r.set_tree("bare", Report::new());
        let expected = format!(
            "{{\n  \"flag\": true,\n  \"big\": {},\n  \"delta\": -3,\n  \"ratio\": 0.25,\n  \
             \"whole\": 2.0,\n  \"nan\": null,\n  \"none\": null,\n  \
             \"name\": \"a\\\"b\\\\c\\nd\",\n  \"list\": [\n    1,\n    2\n  ],\n  \
             \"empty\": [],\n  \"tree\": {{\n    \"k\": 9\n  }},\n  \"bare\": {{}}\n}}\n",
            u64::MAX
        );
        assert_eq!(Value::Tree(r).render_json(), expected);
    }
}
