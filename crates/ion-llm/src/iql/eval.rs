//! IQL evaluation facade: resolves a program's statements once against
//! the attached tables (`super::plan`) and runs the columnar executor
//! (`super::exec`) over the resolved statements.

use super::ast::Program;
use super::exec;
use super::plan::{resolve, Plan};
use super::IqlError;
use extractor::{Table, TableSet, Value};

/// Result of running one IQL program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunOutput {
    /// Scalars declared by `EMIT`, in declaration order.
    pub emitted: Vec<(String, Value)>,
    /// The working table at the end of the program, if any.
    pub table: Option<Table>,
    /// Total rows scanned (evaluation effort metric for benches).
    pub rows_scanned: usize,
}

impl RunOutput {
    /// Look up an emitted scalar by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.emitted.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Numeric view of an emitted scalar.
    #[must_use]
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_f64)
    }
}

/// The IQL interpreter. Holds the attached tables; [`Interpreter::run`]
/// executes one program.
#[derive(Debug)]
pub struct Interpreter<'a> {
    tables: &'a TableSet,
}

impl<'a> Interpreter<'a> {
    /// Create an interpreter over an attached table set.
    #[must_use]
    pub fn new(tables: &'a TableSet) -> Self {
        Interpreter { tables }
    }

    /// Execute a program.
    ///
    /// # Errors
    ///
    /// Returns an [`IqlError`] for unknown tables/columns/variables, bad
    /// function calls, or statements used before `LOAD`.
    pub fn run(&self, program: &Program) -> Result<RunOutput, IqlError> {
        let plan = self.plan(program);
        if !ion_obs::enabled() {
            return exec::execute(&plan);
        }
        let start = std::time::Instant::now();
        let result = exec::execute(&plan);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ion_obs::observe("iql.query_ns", ns);
        ion_obs::counter("iql.queries_evaluated", 1);
        if let Ok(out) = &result {
            ion_obs::counter("iql.rows_scanned", out.rows_scanned as u64);
        }
        result
    }

    /// Resolve a program's statements against the attached tables: its
    /// execution [`Plan`].
    #[must_use]
    pub fn plan<'p>(&'p self, program: &'p Program) -> Plan<'p> {
        let plan = resolve(program, self.tables);
        if ion_obs::enabled() {
            ion_obs::counter("iql.plan.ops", plan.steps.len() as u64);
        }
        plan
    }

    /// Render the plan for a program (`EXPLAIN` output).
    #[must_use]
    pub fn explain(&self, program: &Program) -> String {
        self.plan(program).render()
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_program;
    use super::*;

    fn dxt_tables() -> TableSet {
        let mut t = Table::new("DXT", &["rank", "op", "offset", "length"]);
        // rank 0: two small sequential writes; rank 1: one large read.
        for (rank, op, offset, length) in [
            (0, "write", 0, 100),
            (0, "write", 100, 100),
            (1, "read", 0, 1_000_000),
            (1, "write", 4096, 50),
        ] {
            t.push_row(vec![
                Value::Int(rank),
                Value::Str(op.into()),
                Value::Int(offset),
                Value::Int(length),
            ]);
        }
        let mut set = TableSet::default();
        set.insert(t);
        set
    }

    fn run(src: &str) -> RunOutput {
        let tables = dxt_tables();
        let program = parse_program(src).unwrap();
        Interpreter::new(&tables).run(&program).unwrap()
    }

    #[test]
    fn load_agg_emit() {
        let out = run("LOAD DXT\nAGG n = count(), total = sum(length)\nEMIT n, total\n");
        assert_eq!(out.get_f64("n"), Some(4.0));
        assert_eq!(out.get_f64("total"), Some(1_000_250.0));
    }

    #[test]
    fn filter_with_string_predicate() {
        let out = run("LOAD DXT\nFILTER op == 'write'\nAGG n = count()\nEMIT n\n");
        assert_eq!(out.get_f64("n"), Some(3.0));
    }

    #[test]
    fn derive_and_aggregate_derived_column() {
        let out = run(
            "LOAD DXT\nDERIVE small = length < 1024\nAGG smalls = sum(small), n = count()\nLET pct = 100 * smalls / n\nEMIT pct\n",
        );
        assert_eq!(out.get_f64("pct"), Some(75.0));
    }

    #[test]
    fn group_by_produces_table() {
        let out = run("LOAD DXT\nGROUP rank AGG n = count(), bytes = sum(length)\n");
        let t = out.table.unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, "n"), Some(Value::Int(2)));
        assert_eq!(t.cell(1, "bytes"), Some(Value::Float(1_000_050.0)));
    }

    #[test]
    fn sort_and_limit() {
        let out = run("LOAD DXT\nSORT length DESC\nLIMIT 1\nSELECT length\n");
        let t = out.table.unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.cell(0, "length"), Some(Value::Int(1_000_000)));
    }

    #[test]
    fn scalar_functions_in_let() {
        let out = run(
            "LOAD DXT\nAGG total = sum(length)\nLET r = max(total, 2_000_000) / 1000\nEMIT r\n",
        );
        assert_eq!(out.get_f64("r"), Some(2000.0));
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let out = run("LOAD DXT\nFILTER length > 99999999\nAGG n = count(), s = sum(length)\nLET pct = 100 * s / n\nEMIT pct, n\n");
        assert_eq!(out.get_f64("n"), Some(0.0));
        assert_eq!(out.get_f64("pct"), Some(0.0));
    }

    #[test]
    fn percentile_and_std() {
        let out = run("LOAD DXT\nAGG p50 = pct(length, 50), sd = std(length)\nEMIT p50, sd\n");
        assert_eq!(out.get_f64("p50"), Some(100.0));
        assert!(out.get_f64("sd").unwrap() > 0.0);
    }

    #[test]
    fn distinct_counts_unique_values() {
        let out =
            run("LOAD DXT\nAGG ranks = distinct(rank), ops = distinct(op)\nEMIT ranks, ops\n");
        assert_eq!(out.get_f64("ranks"), Some(2.0));
        assert_eq!(out.get_f64("ops"), Some(2.0));
    }

    #[test]
    fn missing_table_is_error() {
        let tables = dxt_tables();
        let program = parse_program("LOAD POSIX\n").unwrap();
        assert!(matches!(
            Interpreter::new(&tables).run(&program),
            Err(IqlError::NoSuchTable { .. })
        ));
    }

    #[test]
    fn missing_column_is_error() {
        let tables = dxt_tables();
        let program = parse_program("LOAD DXT\nFILTER nope > 1\n").unwrap();
        assert!(matches!(
            Interpreter::new(&tables).run(&program),
            Err(IqlError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn statement_before_load_is_error() {
        let tables = dxt_tables();
        let program = parse_program("FILTER rank == 0\n").unwrap();
        assert!(matches!(
            Interpreter::new(&tables).run(&program),
            Err(IqlError::NoTableLoaded)
        ));
    }

    #[test]
    fn emit_unknown_variable_is_error() {
        let tables = dxt_tables();
        let program = parse_program("LOAD DXT\nEMIT nope\n").unwrap();
        assert!(matches!(
            Interpreter::new(&tables).run(&program),
            Err(IqlError::NoSuchVariable { .. })
        ));
    }

    #[test]
    fn agg_over_group_table_second_stage() {
        // Aggregate the grouped table again: max per-rank op count.
        let out = run(
            "LOAD DXT\nGROUP rank AGG n = count()\nAGG max_ops = max(n), ranks = count()\nEMIT max_ops, ranks\n",
        );
        assert_eq!(out.get_f64("max_ops"), Some(2.0));
        assert_eq!(out.get_f64("ranks"), Some(2.0));
    }

    fn two_table_set() -> TableSet {
        let mut ops = Table::new("OPS", &["file", "rank", "bytes"]);
        for (f, r, b) in [("a", 0, 100), ("a", 1, 200), ("b", 0, 50), ("c", 0, 10)] {
            ops.push_row(vec![Value::Str(f.into()), Value::Int(r), Value::Int(b)]);
        }
        let mut layout = Table::new("LAYOUT", &["file", "stripe_width", "bytes"]);
        for (f, w, b) in [("a", 4, -1), ("b", 1, -1)] {
            layout.push_row(vec![Value::Str(f.into()), Value::Int(w), Value::Int(b)]);
        }
        let mut set = TableSet::default();
        set.insert(ops);
        set.insert(layout);
        set
    }

    #[test]
    fn join_combines_matching_rows() {
        let tables = two_table_set();
        let program = parse_program(
            "LOAD OPS\nJOIN LAYOUT ON file\nAGG n = count(), widths = sum(stripe_width)\nEMIT n, widths\n",
        )
        .unwrap();
        let out = Interpreter::new(&tables).run(&program).unwrap();
        // File c has no layout row: inner join drops it.
        assert_eq!(out.get_f64("n"), Some(3.0));
        assert_eq!(out.get_f64("widths"), Some(4.0 + 4.0 + 1.0));
    }

    #[test]
    fn join_left_wins_on_column_collision() {
        let tables = two_table_set();
        let program = parse_program(
            "LOAD OPS\nJOIN LAYOUT ON file\nFILTER file == 'a'\nAGG b = sum(bytes)\nEMIT b\n",
        )
        .unwrap();
        let out = Interpreter::new(&tables).run(&program).unwrap();
        // `bytes` stays the OPS column (100 + 200), not LAYOUT's -1.
        assert_eq!(out.get_f64("b"), Some(300.0));
    }

    #[test]
    fn join_then_group_supports_layout_analyses() {
        let tables = two_table_set();
        let program = parse_program(
            "LOAD OPS\nJOIN LAYOUT ON file\nGROUP file AGG ranks = distinct(rank), width = max(stripe_width)\nDERIVE crowded = ranks > width\nAGG crowded_files = sum(crowded)\nEMIT crowded_files\n",
        )
        .unwrap();
        let out = Interpreter::new(&tables).run(&program).unwrap();
        // File b: 1 rank on width 1 → not crowded; file a: 2 ranks, width 4.
        assert_eq!(out.get_f64("crowded_files"), Some(0.0));
    }

    #[test]
    fn join_missing_table_or_column_errors() {
        let tables = two_table_set();
        let p = parse_program("LOAD OPS\nJOIN NOPE ON file\n").unwrap();
        assert!(matches!(
            Interpreter::new(&tables).run(&p),
            Err(IqlError::NoSuchTable { .. })
        ));
        let p = parse_program("LOAD OPS\nJOIN LAYOUT ON zzz\n").unwrap();
        assert!(matches!(
            Interpreter::new(&tables).run(&p),
            Err(IqlError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn rows_scanned_accumulates() {
        let out = run("LOAD DXT\nFILTER rank == 0\nAGG n = count()\nEMIT n\n");
        assert!(out.rows_scanned >= 8);
    }

    #[test]
    fn contains_function_on_strings() {
        let out = run("LOAD DXT\nFILTER contains(op, 'rit')\nAGG n = count()\nEMIT n\n");
        assert_eq!(out.get_f64("n"), Some(3.0));
    }

    #[test]
    fn filter_after_sort_reports_the_first_failing_row_in_sorted_order() {
        // Both rows fail `x + 1`; the filter runs after the sort, so the
        // error names the row that sorts first.
        let mut t = Table::new("T", &["y", "x"]);
        t.push_row(vec![Value::Int(2), Value::Str("bbb".into())]);
        t.push_row(vec![Value::Int(1), Value::Str("aaa".into())]);
        let mut tables = TableSet::default();
        tables.insert(t);
        let program = parse_program("LOAD T\nSORT y\nFILTER x + 1 > 0\n").unwrap();
        let err = Interpreter::new(&tables).run(&program).unwrap_err();
        match err {
            IqlError::Type { message } => {
                assert!(
                    message.contains("aaa"),
                    "should fail on post-sort first row: {message}"
                );
            }
            other => panic!("expected type error, got {other:?}"),
        }
    }

    #[test]
    fn filter_after_sort_and_select_keeps_matching_rows() {
        // SELECT drops `op`/`offset`; FILTER on a kept column after the
        // sort and the projection.
        let out = run(
            "LOAD DXT\nSORT length DESC\nSELECT rank, length\nFILTER rank == 0\nAGG n = count(), total = sum(length)\nEMIT n, total\n",
        );
        assert_eq!(out.get_f64("n"), Some(2.0));
        assert_eq!(out.get_f64("total"), Some(200.0));
    }
}
