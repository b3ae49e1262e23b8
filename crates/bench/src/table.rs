//! Prints a result document as text, straight from its JSON tree.
//!
//! An array whose items are all objects is a table headed by their field
//! names (first seen first); an array of arrays is a table headed by
//! column index. A cell holding an object or a long or nested array shows
//! its size, and the value follows as its own block under its path
//! (`runs[3].levels`). Every other value is one `path: value` line.

use serde_json::Value;
use std::fmt::Write;

/// Renders document `name` as titled tables and `path: value` lines.
pub(crate) fn render(name: &str, doc: &Value) -> String {
    let mut out = String::new();
    walk(name, doc, &mut out);
    out
}

fn walk(path: &str, value: &Value, out: &mut String) {
    match value {
        Value::Map(fields) => {
            for (key, field) in fields {
                walk(&format!("{path}.{key}"), field, out);
            }
        }
        Value::Seq(rows) if is_table(rows) => table(path, rows, out),
        Value::Seq(items) => {
            let items: Vec<String> = items.iter().map(cell).collect();
            let _ = writeln!(out, "{path}: [{}]", items.join(", "));
        }
        _ => {
            let _ = writeln!(out, "{path}: {}", cell(value));
        }
    }
}

/// Rows that are all objects, or all arrays.
fn is_table(rows: &[Value]) -> bool {
    let all = |f: fn(&Value) -> bool| !rows.is_empty() && rows.iter().all(f);
    all(|r| matches!(r, Value::Map(_))) || all(|r| matches!(r, Value::Seq(_)))
}

/// The named fields of an object, or the indexed items of an array.
fn fields(row: &Value) -> Vec<(String, &Value)> {
    match row {
        Value::Map(fields) => fields.iter().map(|(k, v)| (k.clone(), v)).collect(),
        Value::Seq(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| (i.to_string(), v))
            .collect(),
        _ => Vec::new(),
    }
}

fn table(path: &str, rows: &[Value], out: &mut String) {
    let rows: Vec<Vec<(String, &Value)>> = rows.iter().map(fields).collect();
    let mut headers: Vec<&str> = Vec::new();
    for (key, _) in rows.iter().flatten() {
        if !headers.contains(&key.as_str()) {
            headers.push(key);
        }
    }
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            headers
                .iter()
                .map(|h| {
                    row.iter()
                        .find(|(k, _)| k == h)
                        .map_or(String::new(), |(_, v)| cell(v))
                })
                .collect()
        })
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in &cells {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.chars().count());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let padded: Vec<String> = cells
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        padded.join("  ")
    };
    let _ = writeln!(out, "\n## {path}\n");
    let _ = writeln!(out, "{}", line(&mut headers.iter().copied()));
    let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    let _ = writeln!(out, "{}", "-".repeat(rule));
    for row in &cells {
        let _ = writeln!(out, "{}", line(&mut row.iter().map(String::as_str)));
    }
    for (i, row) in rows.iter().enumerate() {
        for (key, value) in row {
            if !inline(value) {
                walk(&format!("{path}[{i}].{key}"), value, out);
            }
        }
    }
}

/// One value as a cell: scalars in full (floats to 4 significant digits),
/// short arrays of scalars in full, other arrays and objects by size.
fn cell(value: &Value) -> String {
    match value {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::I64(v) => v.to_string(),
        Value::U64(v) => v.to_string(),
        Value::F64(v) => number(*v),
        Value::Str(s) => s.clone(),
        Value::Seq(items) if inline(value) => {
            let items: Vec<String> = items.iter().map(cell).collect();
            format!("[{}]", items.join(", "))
        }
        Value::Seq(items) => plural(items.len(), "item"),
        Value::Map(fields) => plural(fields.len(), "field"),
    }
}

fn plural(n: usize, noun: &str) -> String {
    format!("{n} {noun}{}", if n == 1 { "" } else { "s" })
}

/// Whether a cell shows `value` in full: a scalar, or a short array of
/// scalars.
fn inline(value: &Value) -> bool {
    match value {
        Value::Seq(items) => {
            items.len() <= 8
                && items
                    .iter()
                    .all(|v| !matches!(v, Value::Seq(_) | Value::Map(_)))
        }
        Value::Map(_) => false,
        _ => true,
    }
}

/// A float to 4 significant digits; exponent form outside 1e-3..1e6.
fn number(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 || !v.is_finite() {
        v.to_string()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else {
        let decimals = (3 - a.log10().floor() as i32).max(0) as usize;
        format!("{v:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn nested_document_prints_tables_from_its_field_names() {
        let doc = json!({
            "scale": 10,
            "note": "two runs",
            "runs": [
                {"algorithm": "1d", "seconds": 0.012345, "levels": [{"level": 0, "comm": 1.5}]},
                {"algorithm": "2d", "seconds": 2500000.0, "levels": []}
            ],
            "heat": [[1, 2], [3, 4]]
        });
        let text = render("doc", &doc);
        let expected = "\
doc.scale: 10
doc.note: two runs

## doc.runs

algorithm  seconds  levels
--------------------------
       1d  0.01235  1 item
       2d  2.500e6      []

## doc.runs[0].levels

level   comm
------------
    0  1.500

## doc.heat

0  1
----
1  2
3  4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn top_level_array_of_objects_is_one_table() {
        let text = render("cells", &json!([{"a": 1, "b": true}, {"a": 2, "c": null}]));
        assert!(text.starts_with("\n## cells\n\na     b     c\n"), "{text}");
        assert!(text.contains("2        null"), "{text}");
    }

    #[test]
    fn floats_keep_four_significant_digits() {
        assert_eq!(number(17.8), "17.80");
        assert_eq!(number(0.0123456), "0.01235");
        assert_eq!(number(1234.5), "1234");
        assert_eq!(number(0.0), "0");
        assert_eq!(number(1.5e-7), "1.500e-7");
    }
}
