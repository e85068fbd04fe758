//! Minimal RFC-4180 CSV writer.
//!
//! CSV is how ION hands tables to the model (prompt attachments) and to
//! people (`ion_cli extract`). Implemented in-repo to keep the
//! dependency set to the allowed list. Fields containing `,`, `"` or a
//! line break are quoted, with embedded quotes doubled (`""`). Nothing
//! reads CSV back: stored tables use the chunk codec
//! ([`crate::chunked::encode_table`]).

use crate::table::Table;

fn needs_quoting(field: &str) -> bool {
    field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r')
}

fn write_field(out: &mut String, field: &str) {
    if needs_quoting(field) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serialize a table to CSV text (header + rows, `\n` line endings).
#[must_use]
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    for (i, c) in table.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, &c.name);
    }
    out.push('\n');
    for row in table.iter_rows() {
        for (i, v) in row.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_field(&mut out, &v.to_string());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Value;

    #[test]
    fn writer_quotes_commas_quotes_and_line_breaks() {
        let mut t = Table::new("T", &["id", "path", "note"]);
        t.push_row(vec![
            Value::Int(1),
            Value::Str("has,comma".into()),
            Value::Str("has \"quote\"".into()),
        ]);
        t.push_row(vec![
            Value::Float(2.5),
            Value::Str("multi\nline".into()),
            Value::Null,
        ]);
        assert_eq!(
            to_csv(&t),
            "id,path,note\n1,\"has,comma\",\"has \"\"quote\"\"\"\n2.5,\"multi\nline\",\n"
        );
    }

    #[test]
    fn header_only_is_empty_table() {
        assert_eq!(to_csv(&Table::new("T", &["a", "b"])), "a,b\n");
    }

    #[test]
    fn quoted_header_fields() {
        assert_eq!(
            to_csv(&Table::new("T", &["col,1", "col2"])),
            "\"col,1\",col2\n"
        );
    }
}
