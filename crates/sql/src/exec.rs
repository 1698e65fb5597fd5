//! Statement execution against a [`Database`].

use crate::ast::*;
use crate::plan::{self, PlannerConfig, SelectPlan};
use crate::table::Table;
use crate::value::Value;
use crate::{Database, Result, SqlError};
use std::cmp::Ordering;

/// Rows returned by a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column labels (as projected).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// The first column of every row rendered as text. This is exactly
    /// how `cluster-kill --query=...` consumes results (paper §6.4): a
    /// list of node names.
    pub fn first_column(&self) -> Vec<String> {
        self.rows.iter().filter_map(|row| row.first()).map(Value::render).collect()
    }

    /// Render an ASCII table in the style of the `mysql` client — used by
    /// the `reproduce` binary to print Tables II and III. Column widths
    /// are measured in characters, not bytes, so multi-byte UTF-8 values
    /// (hostnames with accents, localized comments) stay aligned —
    /// `format!`'s padding counts characters too.
    pub fn render_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        for row in &self.rows {
            for (i, v) in row.iter().enumerate() {
                widths[i] = widths[i].max(v.render().chars().count());
            }
        }
        let sep = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&sep);
        out.push('\n');
        out.push('|');
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push('|');
            for (v, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {:<w$} |", v.render()));
            }
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

/// Outcome of executing any statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A SELECT's rows.
    Rows(QueryResult),
    /// A write; `affected` counts inserted/updated/deleted rows.
    Written {
        /// Rows inserted, updated, or deleted.
        affected: usize,
    },
}

/// Execute a parsed statement.
pub fn execute(db: &mut Database, stmt: Statement) -> Result<ExecOutcome> {
    match stmt {
        Statement::CreateTable { name, columns } => {
            db.add_table(Table::new(name, columns))?;
            Ok(ExecOutcome::Written { affected: 0 })
        }
        Statement::DropTable { name } => {
            if db.table(&name).is_none() {
                return Err(SqlError::NoSuchTable(name));
            }
            // Database stores tables keyed by lowercase name; re-add by
            // removing through the public surface.
            db.remove_table(&name);
            Ok(ExecOutcome::Written { affected: 0 })
        }
        Statement::Insert { table, columns, rows } => {
            let t = db.table_mut(&table).ok_or(SqlError::NoSuchTable(table))?;
            let affected = rows.len();
            // Stage (validate + coerce) every row before appending any, so
            // a mid-statement type error leaves the table untouched. The
            // durable engine journals whole statements and replays them on
            // recovery; that is only sound if failed statements have no
            // effect.
            let staged = rows
                .into_iter()
                .map(|row| match &columns {
                    Some(names) => t.stage_named(names, row),
                    None => t.stage_row(row),
                })
                .collect::<Result<Vec<_>>>()?;
            for row in staged {
                t.append_staged(row);
            }
            Ok(ExecOutcome::Written { affected })
        }
        Statement::Select { items, from, where_clause, group_by, order_by, limit } => select(
            db,
            &items,
            &from,
            where_clause.as_ref(),
            &group_by,
            &order_by,
            limit,
            PlanChoice::Config(&PlannerConfig::default()),
        )
        .map(ExecOutcome::Rows),
        Statement::Update { table, sets, where_clause } => {
            update(db, &table, &sets, where_clause.as_ref())
        }
        Statement::Delete { table, where_clause } => delete(db, &table, where_clause.as_ref()),
        Statement::Explain(inner) => explain(db, *inner).map(ExecOutcome::Rows),
    }
}

/// Execute a parsed statement against a shared (read-only) database
/// reference. Only `SELECT` and `EXPLAIN` are possible without mutation;
/// write statements are rejected. `Prepared` carries a plan built at
/// prepare time (`Database::query`'s statement cache); `Config` plans now
/// (`Database::query_with`, the oracle and benchmark path).
pub(crate) fn read_only(
    db: &Database,
    stmt: &Statement,
    mode: PlanChoice<'_>,
) -> Result<QueryResult> {
    match stmt {
        Statement::Select { items, from, where_clause, group_by, order_by, limit } => {
            select(db, items, from, where_clause.as_ref(), group_by, order_by, *limit, mode)
        }
        Statement::Explain(inner) => explain(db, (**inner).clone()),
        _ => Err(SqlError::Unsupported(
            "only SELECT may run on a read-only database reference".into(),
        )),
    }
}

/// How `select` obtains its filtered row set.
#[derive(Clone, Copy)]
pub(crate) enum PlanChoice<'a> {
    /// A plan (or a recorded planning refusal) from the statement cache.
    Prepared(Option<&'a SelectPlan>),
    /// Plan now with this configuration, falling back to the scan path
    /// when planning declines ([`crate::PlannerMode::Scan`] always
    /// declines).
    Config(&'a PlannerConfig),
}

/// `EXPLAIN <stmt>`: render the plan the SELECT would run with. Writes
/// cannot be explained — the planner only applies to SELECT.
fn explain(db: &Database, stmt: Statement) -> Result<QueryResult> {
    let Statement::Select { from, where_clause, order_by, limit, items, group_by } = stmt else {
        return Err(SqlError::Unsupported("EXPLAIN supports only SELECT".into()));
    };
    let tables = resolve_from(db, &from)?;
    let planned = where_clause.as_ref().and_then(|w| plan::plan_select(&tables, w));
    let mut lines = plan::render_plan(&tables, planned.as_ref(), where_clause.as_ref());
    if !order_by.is_empty() {
        let keys: Vec<String> = order_by
            .iter()
            .map(|k| format!("{}{}", k.column, if k.desc { " desc" } else { "" }))
            .collect();
        let has_aggregate = items.iter().any(SelectItem::is_aggregate);
        let top_k = match limit {
            Some(k) if !has_aggregate && group_by.is_empty() => format!(" (top-{k} selection)"),
            _ => " (sort)".to_string(),
        };
        lines.push(format!("  order by: {}{top_k}", keys.join(", ")));
    }
    if let Some(k) = limit {
        lines.push(format!("  limit: {k}"));
    }
    Ok(QueryResult {
        columns: vec!["plan".to_string()],
        rows: lines.into_iter().map(|l| vec![Value::Text(l)]).collect(),
    })
}

/// Binding environment for expression evaluation over a (possibly joined)
/// row: for each FROM table, its name, column names, and the slice of the
/// joined row holding its values. Shared with the planner (`plan.rs`),
/// which evaluates pushed-down filters against single-table environments.
pub(crate) struct RowEnv<'a> {
    pub(crate) tables: &'a [(&'a str, &'a Table)],
    /// Offsets of each table's columns within the joined row.
    pub(crate) offsets: &'a [usize],
    pub(crate) row: &'a [Value],
}

impl<'a> RowEnv<'a> {
    fn resolve(&self, col: &ColumnRef) -> Result<&'a Value> {
        let mut found: Option<&'a Value> = None;
        for ((name, table), offset) in self.tables.iter().zip(self.offsets) {
            if let Some(t) = &col.table {
                if !t.eq_ignore_ascii_case(name) {
                    continue;
                }
            }
            if let Some(idx) = table.column_index(&col.column) {
                if found.is_some() {
                    return Err(SqlError::AmbiguousColumn(col.to_string()));
                }
                found = Some(&self.row[offset + idx]);
            }
        }
        found.ok_or_else(|| SqlError::NoSuchColumn(col.to_string()))
    }
}

pub(crate) fn eval(expr: &Expr, env: &RowEnv<'_>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(c) => env.resolve(c).cloned(),
        Expr::Not(inner) => {
            let v = eval(inner, env)?;
            Ok(Value::Int(if v.is_truthy() { 0 } else { 1 }))
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, env)?;
            match op {
                BinOp::And => {
                    if !l.is_truthy() {
                        return Ok(Value::Int(0));
                    }
                    let r = eval(rhs, env)?;
                    Ok(Value::Int(r.is_truthy() as i64))
                }
                BinOp::Or => {
                    if l.is_truthy() {
                        return Ok(Value::Int(1));
                    }
                    let r = eval(rhs, env)?;
                    Ok(Value::Int(r.is_truthy() as i64))
                }
                cmp => {
                    let r = eval(rhs, env)?;
                    let ord = l.sql_cmp(&r);
                    let truth = match (cmp, ord) {
                        (_, None) => false, // NULL never compares
                        (BinOp::Eq, Some(o)) => o == Ordering::Equal,
                        (BinOp::NotEq, Some(o)) => o != Ordering::Equal,
                        (BinOp::Lt, Some(o)) => o == Ordering::Less,
                        (BinOp::LtEq, Some(o)) => o != Ordering::Greater,
                        (BinOp::Gt, Some(o)) => o == Ordering::Greater,
                        (BinOp::GtEq, Some(o)) => o != Ordering::Less,
                        (BinOp::And | BinOp::Or, _) => unreachable!(),
                    };
                    Ok(Value::Int(truth as i64))
                }
            }
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval(expr, env)?;
            let hit = v.like(pattern);
            Ok(Value::Int((hit != *negated) as i64))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, env)?;
            Ok(Value::Int((v.is_null() != *negated) as i64))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, env)?;
            if v.is_null() {
                return Ok(Value::Int(0));
            }
            let hit = list.iter().any(|item| v.sql_cmp(item) == Some(Ordering::Equal));
            Ok(Value::Int((hit != *negated) as i64))
        }
    }
}

/// Resolve FROM table names against the database, in FROM order.
fn resolve_from<'d>(db: &'d Database, from: &[String]) -> Result<Vec<(&'d str, &'d Table)>> {
    from.iter()
        .map(|name| {
            db.table(name).map(|t| (t.name(), t)).ok_or_else(|| SqlError::NoSuchTable(name.clone()))
        })
        .collect()
}

/// The naive path: enumerate the cross product of all FROM tables with an
/// odometer and evaluate the whole WHERE per assembled row. This is the
/// semantic reference the planner must match byte-for-byte, and the
/// fallback whenever planning declines.
fn scan_rows(
    tables: &[(&str, &Table)],
    offsets: &[usize],
    total_width: usize,
    where_clause: Option<&Expr>,
    examined: &mut u64,
) -> Result<Vec<Vec<Value>>> {
    let mut joined: Vec<Vec<Value>> = Vec::new();
    let mut indices = vec![0usize; tables.len()];
    if tables.iter().all(|(_, t)| !t.is_empty()) {
        'outer: loop {
            *examined += 1;
            let mut row = Vec::with_capacity(total_width);
            for ((_, t), &idx) in tables.iter().zip(indices.iter()) {
                row.extend_from_slice(&t.rows()[idx]);
            }
            let keep = match where_clause {
                Some(expr) => {
                    let env = RowEnv { tables, offsets, row: &row };
                    eval(expr, &env)?.is_truthy()
                }
                None => true,
            };
            if keep {
                joined.push(row);
            }
            // Odometer increment.
            for pos in (0..tables.len()).rev() {
                indices[pos] += 1;
                if indices[pos] < tables[pos].1.len() {
                    continue 'outer;
                }
                indices[pos] = 0;
            }
            break;
        }
    }
    Ok(joined)
}

#[allow(clippy::too_many_arguments)]
fn select(
    db: &Database,
    items: &[SelectItem],
    from: &[String],
    where_clause: Option<&Expr>,
    group_by: &[ColumnRef],
    order_by: &[OrderKey],
    limit: Option<usize>,
    mode: PlanChoice<'_>,
) -> Result<QueryResult> {
    let tables = resolve_from(db, from)?;

    let mut offsets = Vec::with_capacity(tables.len());
    let mut total_width = 0usize;
    for (_, t) in &tables {
        offsets.push(total_width);
        total_width += t.columns().len();
    }

    // Produce the filtered, joined row set — through the planner when a
    // WHERE clause planned successfully, through the scan path otherwise.
    // `examined` and `used_index` feed the database's QueryStats.
    let mut examined = 0u64;
    let mut used_index = false;
    let mut est_rows: Option<f64> = None;
    let mut joined: Vec<Vec<Value>> = match (where_clause, mode) {
        (Some(expr), PlanChoice::Config(config)) => {
            match plan::plan_select_with(&tables, expr, config) {
                Some((p, info)) => {
                    db.stats().record_planning(&info, p.reordered);
                    used_index = p.uses_index();
                    if p.costed {
                        est_rows = Some(p.est_rows);
                    }
                    plan::execute_plan(&p, &tables, &offsets, total_width, &mut examined)?
                }
                None => scan_rows(&tables, &offsets, total_width, where_clause, &mut examined)?,
            }
        }
        (Some(_), PlanChoice::Prepared(Some(p))) => {
            used_index = p.uses_index();
            if p.costed {
                est_rows = Some(p.est_rows);
            }
            plan::execute_plan(p, &tables, &offsets, total_width, &mut examined)?
        }
        _ => scan_rows(&tables, &offsets, total_width, where_clause, &mut examined)?,
    };
    // Feed the estimated-vs-actual ratio histogram on the pre-projection
    // joined-row count — the quantity the planner actually estimated.
    if let Some(est) = est_rows {
        db.stats().record_estimate(est, joined.len() as u64);
    }

    let has_aggregate = items.iter().any(SelectItem::is_aggregate);

    // ORDER BY before projection so sort keys need not be projected.
    if !order_by.is_empty() {
        // Resolve sort-key positions once, against an arbitrary row shape.
        let key_indices: Vec<(usize, bool)> = order_by
            .iter()
            .map(|key| resolve_position(&tables, &offsets, &key.column).map(|idx| (idx, key.desc)))
            .collect::<Result<_>>()?;
        // Top-k fast path: when a LIMIT smaller than the row count
        // follows the sort (and rows flow straight to projection, not
        // into grouping), keep a bounded heap instead of sorting
        // everything — O(n log k) versus O(n log n).
        let top_k = match limit {
            Some(k) if !has_aggregate && group_by.is_empty() && k < joined.len() => Some(k),
            _ => None,
        };
        match top_k {
            Some(k) => joined = top_k_rows(joined, k, &key_indices),
            None => joined.sort_by(|a, b| {
                for &(idx, desc) in &key_indices {
                    let ord = a[idx].sql_cmp(&b[idx]).unwrap_or(Ordering::Equal);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            }),
        }
    }

    // Grouped / aggregate path.
    if has_aggregate || !group_by.is_empty() {
        let result = grouped_select(items, group_by, &tables, &offsets, joined, limit)?;
        db.stats().record_select(examined, result.rows.len() as u64, used_index);
        return Ok(result);
    }

    if let Some(n) = limit {
        joined.truncate(n);
    }

    let mut out_columns: Vec<String> = Vec::new();
    let mut positions: Vec<usize> = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for ((name, t), offset) in tables.iter().zip(&offsets) {
                    for (i, c) in t.columns().iter().enumerate() {
                        out_columns.push(if tables.len() > 1 {
                            format!("{name}.{}", c.name)
                        } else {
                            c.name.clone()
                        });
                        positions.push(offset + i);
                    }
                }
            }
            SelectItem::Column(col) => {
                out_columns.push(col.to_string());
                positions.push(resolve_position(&tables, &offsets, col)?);
            }
            _ => unreachable!("aggregates handled above"),
        }
    }

    let rows: Vec<Vec<Value>> =
        joined.into_iter().map(|row| positions.iter().map(|&i| row[i].clone()).collect()).collect();
    db.stats().record_select(examined, rows.len() as u64, used_index);
    Ok(QueryResult { columns: out_columns, rows })
}

/// Resolve a column reference to a joined-row index, checking ambiguity.
fn resolve_position(
    tables: &[(&str, &Table)],
    offsets: &[usize],
    col: &ColumnRef,
) -> Result<usize> {
    let mut found = None;
    for ((name, table), offset) in tables.iter().zip(offsets) {
        if let Some(t) = &col.table {
            if !t.eq_ignore_ascii_case(name) {
                continue;
            }
        }
        if let Some(idx) = table.column_index(&col.column) {
            if found.is_some() {
                return Err(SqlError::AmbiguousColumn(col.to_string()));
            }
            found = Some(offset + idx);
        }
    }
    found.ok_or_else(|| SqlError::NoSuchColumn(col.to_string()))
}

/// Partial selection for `ORDER BY ... LIMIT k`: return the k first rows
/// of the stable sort without sorting everything. Stability is preserved
/// by totalizing the comparison with each row's original position — under
/// that total order, "k smallest, ascending" is exactly "stable sort,
/// then truncate(k)". Implemented as a bounded binary max-heap (the root
/// is the worst row kept; a better row replaces it).
fn top_k_rows(rows: Vec<Vec<Value>>, k: usize, keys: &[(usize, bool)]) -> Vec<Vec<Value>> {
    if k == 0 {
        return Vec::new();
    }
    let cmp = |a: &(Vec<Value>, usize), b: &(Vec<Value>, usize)| -> Ordering {
        for &(idx, desc) in keys {
            let ord = a.0[idx].sql_cmp(&b.0[idx]).unwrap_or(Ordering::Equal);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.1.cmp(&b.1)
    };
    // std's BinaryHeap orders by Ord, not a closure, so keep a small
    // hand-rolled sift-up/sift-down heap instead.
    let mut heap: Vec<(Vec<Value>, usize)> = Vec::with_capacity(k);
    for (pos, row) in rows.into_iter().enumerate() {
        let item = (row, pos);
        if heap.len() < k {
            heap.push(item);
            // Sift up.
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if cmp(&heap[i], &heap[parent]) == Ordering::Greater {
                    heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if cmp(&item, &heap[0]) == Ordering::Less {
            heap[0] = item;
            // Sift down.
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut largest = i;
                if l < heap.len() && cmp(&heap[l], &heap[largest]) == Ordering::Greater {
                    largest = l;
                }
                if r < heap.len() && cmp(&heap[r], &heap[largest]) == Ordering::Greater {
                    largest = r;
                }
                if largest == i {
                    break;
                }
                heap.swap(i, largest);
                i = largest;
            }
        }
    }
    heap.sort_by(&cmp);
    heap.into_iter().map(|(row, _)| row).collect()
}

/// Evaluate the grouped/aggregate SELECT path. With an empty `group_by`
/// the whole (already sorted) row set forms a single group — the plain
/// `SELECT COUNT(*) ...` case. Group order follows first appearance,
/// which is the WHERE/ORDER BY-processed row order.
fn grouped_select(
    items: &[SelectItem],
    group_by: &[ColumnRef],
    tables: &[(&str, &Table)],
    offsets: &[usize],
    joined: Vec<Vec<Value>>,
    limit: Option<usize>,
) -> Result<QueryResult> {
    // Validate projection: non-aggregates must appear in GROUP BY.
    for item in items {
        match item {
            SelectItem::Column(col) => {
                let grouped = group_by
                    .iter()
                    .any(|g| g.column == col.column && (g.table.is_none() || g.table == col.table));
                if !grouped {
                    return Err(SqlError::Unsupported(format!(
                        "column {col} must appear in GROUP BY or an aggregate"
                    )));
                }
            }
            SelectItem::Wildcard => {
                return Err(SqlError::Unsupported(
                    "SELECT * cannot be combined with aggregates/GROUP BY".into(),
                ))
            }
            _ => {}
        }
    }

    let key_positions: Vec<usize> =
        group_by.iter().map(|col| resolve_position(tables, offsets, col)).collect::<Result<_>>()?;

    // Partition rows into groups, preserving first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: std::collections::HashMap<Vec<Value>, Vec<Vec<Value>>> = Default::default();
    for row in joined {
        let key: Vec<Value> = key_positions.iter().map(|&i| row[i].clone()).collect();
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row);
    }
    // With no GROUP BY, aggregates run over everything as one group.
    if group_by.is_empty() && order.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }

    let mut columns = Vec::new();
    for item in items {
        columns.push(match item {
            SelectItem::CountStar => "count(*)".to_string(),
            SelectItem::Min(col) => format!("min({col})"),
            SelectItem::Max(col) => format!("max({col})"),
            SelectItem::Sum(col) => format!("sum({col})"),
            SelectItem::Column(col) => col.to_string(),
            SelectItem::Wildcard => unreachable!("rejected above"),
        });
    }

    let mut rows = Vec::new();
    for key in order {
        let members = &groups[&key];
        let mut row = Vec::new();
        for item in items {
            row.push(match item {
                SelectItem::CountStar => Value::Int(members.len() as i64),
                SelectItem::Min(col) => {
                    extreme(members, resolve_position(tables, offsets, col)?, true)
                }
                SelectItem::Max(col) => {
                    extreme(members, resolve_position(tables, offsets, col)?, false)
                }
                SelectItem::Sum(col) => {
                    let idx = resolve_position(tables, offsets, col)?;
                    let mut any = false;
                    let mut total = 0i64;
                    for member in members {
                        if let Some(n) = member[idx].as_int() {
                            total += n;
                            any = true;
                        }
                    }
                    if any {
                        Value::Int(total)
                    } else {
                        Value::Null
                    }
                }
                SelectItem::Column(col) => {
                    let idx = resolve_position(tables, offsets, col)?;
                    members.first().map(|m| m[idx].clone()).unwrap_or(Value::Null)
                }
                SelectItem::Wildcard => unreachable!("rejected above"),
            });
        }
        rows.push(row);
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
    Ok(QueryResult { columns, rows })
}

/// MIN/MAX over a group, skipping NULLs (SQL semantics).
fn extreme(members: &[Vec<Value>], idx: usize, is_min: bool) -> Value {
    let mut best: Option<&Value> = None;
    for member in members {
        let v = &member[idx];
        if v.is_null() {
            continue;
        }
        best = Some(match best {
            None => v,
            Some(b) => {
                let ord = v.sql_cmp(b).unwrap_or(Ordering::Equal);
                if (is_min && ord == Ordering::Less) || (!is_min && ord == Ordering::Greater) {
                    v
                } else {
                    b
                }
            }
        });
    }
    best.cloned().unwrap_or(Value::Null)
}

fn update(
    db: &mut Database,
    table: &str,
    sets: &[(String, Expr)],
    where_clause: Option<&Expr>,
) -> Result<ExecOutcome> {
    // Evaluate per-row so SET expressions may reference columns.
    let t = db.table(table).ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
    let name = t.name().to_string();
    let set_indices: Vec<usize> = sets
        .iter()
        .map(|(col, _)| {
            t.column_index(col).ok_or_else(|| SqlError::NoSuchColumn(format!("{name}.{col}")))
        })
        .collect::<Result<_>>()?;
    let columns = t.columns().to_vec();

    let snapshot: Vec<Vec<Value>> = t.rows().to_vec();
    let mut new_rows = Vec::with_capacity(snapshot.len());
    let mut affected = 0usize;
    {
        let t_ref = db.table(table).unwrap();
        let tables = [(t_ref.name(), t_ref)];
        let offsets = [0usize];
        for row in &snapshot {
            let env = RowEnv { tables: &tables, offsets: &offsets, row };
            let hit = match where_clause {
                Some(expr) => eval(expr, &env)?.is_truthy(),
                None => true,
            };
            if hit {
                let mut updated = row.clone();
                for ((_, expr), &idx) in sets.iter().zip(&set_indices) {
                    let value = eval(expr, &env)?;
                    updated[idx] = Table::coerce(&columns[idx], value)?;
                }
                new_rows.push(updated);
                affected += 1;
            } else {
                new_rows.push(row.clone());
            }
        }
    }
    *db.table_mut(table).unwrap().rows_mut() = new_rows;
    Ok(ExecOutcome::Written { affected })
}

fn delete(db: &mut Database, table: &str, where_clause: Option<&Expr>) -> Result<ExecOutcome> {
    let t = db.table(table).ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
    let snapshot: Vec<Vec<Value>> = t.rows().to_vec();
    let mut keep = Vec::with_capacity(snapshot.len());
    let mut affected = 0usize;
    {
        let tables = [(t.name(), t)];
        let offsets = [0usize];
        for row in &snapshot {
            let env = RowEnv { tables: &tables, offsets: &offsets, row };
            let hit = match where_clause {
                Some(expr) => eval(expr, &env)?.is_truthy(),
                None => true,
            };
            if hit {
                affected += 1;
            } else {
                keep.push(row.clone());
            }
        }
    }
    *db.table_mut(table).unwrap().rows_mut() = keep;
    Ok(ExecOutcome::Written { affected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlannerMode;

    const SCAN: PlannerConfig = PlannerConfig { mode: PlannerMode::Scan, force_join: None };

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.execute("create table nodes (id int, name text, membership int, rack int, rank int, ip text, comment text)").unwrap();
        db.execute("create table memberships (id int, name text, appliance int, compute text)")
            .unwrap();
        // Table II's rows (abridged).
        for stmt in [
            "insert into nodes values (1, 'frontend-0', 1, 0, 0, '10.1.1.1', 'Gateway machine')",
            "insert into nodes values (2, 'network-0-0', 4, 0, 0, '10.255.255.253', 'Switch for Cabinet 0')",
            "insert into nodes values (4, 'compute-0-0', 2, 0, 0, '10.255.255.245', 'Compute node')",
            "insert into nodes values (5, 'compute-0-1', 2, 0, 1, '10.255.255.244', 'Compute node')",
            "insert into nodes values (6, 'compute-0-2', 2, 0, 2, '10.255.255.243', NULL)",
            "insert into nodes values (8, 'web-1-0', 8, 1, 0, '10.255.255.246', 'Web Server in Cabinet 1')",
        ] {
            db.execute(stmt).unwrap();
        }
        for stmt in [
            "insert into memberships values (1, 'Frontend', 1, 'no')",
            "insert into memberships values (2, 'Compute', 2, 'yes')",
            "insert into memberships values (4, 'Ethernet Switches', 4, 'no')",
            "insert into memberships values (8, 'Web Server', 3, 'no')",
        ] {
            db.execute(stmt).unwrap();
        }
        db
    }

    #[test]
    fn where_filters_rows() {
        let db = sample_db();
        let names = db.query("select name from nodes where rack=1").unwrap().first_column();
        assert_eq!(names, vec!["web-1-0"]);
    }

    #[test]
    fn join_with_membership() {
        let db = sample_db();
        let names = db
            .query(
                "select nodes.name from nodes,memberships where \
                 nodes.membership = memberships.id and memberships.compute = 'yes'",
            )
            .unwrap()
            .first_column();
        assert_eq!(names, vec!["compute-0-0", "compute-0-1", "compute-0-2"]);
    }

    #[test]
    fn wildcard_projection_and_labels() {
        let db = sample_db();
        let result = db.query("select * from memberships where id = 1").unwrap();
        assert_eq!(result.columns, vec!["id", "name", "appliance", "compute"]);
        assert_eq!(result.rows.len(), 1);
        let joined = db
            .query("select * from nodes, memberships where nodes.membership = memberships.id")
            .unwrap();
        assert!(joined.columns.contains(&"nodes.name".to_string()));
        assert!(joined.columns.contains(&"memberships.name".to_string()));
    }

    #[test]
    fn ambiguous_column_is_an_error() {
        let db = sample_db();
        let err = db
            .query("select name from nodes, memberships where nodes.membership = memberships.id")
            .unwrap_err();
        assert!(matches!(err, SqlError::AmbiguousColumn(_)));
        let err =
            db.query("select nodes.name from nodes, memberships where name = 'x'").unwrap_err();
        assert!(matches!(err, SqlError::AmbiguousColumn(_)));
    }

    #[test]
    fn order_by_multi_key() {
        let db = sample_db();
        let result =
            db.query("select name from nodes where membership = 2 order by rank desc").unwrap();
        let names: Vec<_> = result.rows.iter().map(|r| r[0].render()).collect();
        assert_eq!(names, vec!["compute-0-2", "compute-0-1", "compute-0-0"]);
    }

    #[test]
    fn limit_truncates() {
        let db = sample_db();
        let result = db.query("select name from nodes order by id limit 2").unwrap();
        assert_eq!(result.rows.len(), 2);
    }

    #[test]
    fn aggregates_count_min_max() {
        let db = sample_db();
        let result = db
            .query("select count(*), min(rank), max(rank) from nodes where membership = 2")
            .unwrap();
        assert_eq!(result.rows[0], vec![Value::Int(3), Value::Int(0), Value::Int(2)]);
    }

    #[test]
    fn aggregates_on_empty_set() {
        let db = sample_db();
        let result = db.query("select count(*), max(rank) from nodes where rack = 99").unwrap();
        assert_eq!(result.rows[0], vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn group_by_counts_per_rack() {
        let db = sample_db();
        let result =
            db.query("select rack, count(*) from nodes group by rack order by rack").unwrap();
        assert_eq!(result.columns, vec!["rack", "count(*)"]);
        assert_eq!(
            result.rows,
            vec![vec![Value::Int(0), Value::Int(5)], vec![Value::Int(1), Value::Int(1)]]
        );
    }

    #[test]
    fn group_by_with_min_max_sum() {
        let db = sample_db();
        let result = db
            .query(
                "select membership, count(*), min(rank), max(rank), sum(rank)                  from nodes group by membership order by membership",
            )
            .unwrap();
        // membership 2 (compute) has ranks 0,1,2.
        let compute = result.rows.iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(compute[1], Value::Int(3));
        assert_eq!(compute[2], Value::Int(0));
        assert_eq!(compute[3], Value::Int(2));
        assert_eq!(compute[4], Value::Int(3));
    }

    #[test]
    fn group_by_join_counts_by_membership_name() {
        let db = sample_db();
        let result = db
            .query(
                "select memberships.name, count(*) from nodes, memberships                  where nodes.membership = memberships.id                  group by memberships.name order by memberships.name",
            )
            .unwrap();
        let as_pairs: Vec<(String, i64)> =
            result.rows.iter().map(|r| (r[0].render(), r[1].as_int().unwrap())).collect();
        assert!(as_pairs.contains(&("Compute".to_string(), 3)));
        assert!(as_pairs.contains(&("Frontend".to_string(), 1)));
    }

    #[test]
    fn ungrouped_column_with_aggregate_is_rejected() {
        let db = sample_db();
        let err = db.query("select name, count(*) from nodes").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
        let err = db.query("select name, count(*) from nodes group by rack").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
        let err = db.query("select *, count(*) from nodes").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
    }

    #[test]
    fn group_by_empty_table_yields_no_groups() {
        let mut db = sample_db();
        db.execute("delete from nodes").unwrap();
        let result = db.query("select rack, count(*) from nodes group by rack").unwrap();
        assert!(result.rows.is_empty());
        // ...but a global aggregate still yields one row.
        let result = db.query("select count(*) from nodes").unwrap();
        assert_eq!(result.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn sum_skips_nulls_and_text() {
        let mut db = Database::new();
        db.execute("create table t (v int)").unwrap();
        db.execute("insert into t values (1), (NULL), (2)").unwrap();
        let result = db.query("select sum(v), count(*) from t").unwrap();
        assert_eq!(result.rows[0], vec![Value::Int(3), Value::Int(3)]);
    }

    #[test]
    fn like_and_in_predicates() {
        let db = sample_db();
        let names =
            db.query("select name from nodes where name like 'compute-%'").unwrap().first_column();
        assert_eq!(names.len(), 3);
        let names = db
            .query("select name from nodes where id in (1, 8) order by id")
            .unwrap()
            .first_column();
        assert_eq!(names, vec!["frontend-0", "web-1-0"]);
        let names = db
            .query(
                "select name from nodes where name not like 'compute-%' and rack = 0 order by id",
            )
            .unwrap()
            .first_column();
        assert_eq!(names, vec!["frontend-0", "network-0-0"]);
    }

    #[test]
    fn null_semantics() {
        let db = sample_db();
        // comment = NULL row never matches equality...
        let n = db
            .query("select name from nodes where comment = 'Compute node'")
            .unwrap()
            .first_column();
        assert_eq!(n.len(), 2);
        // ...but IS NULL finds it.
        let n = db.query("select name from nodes where comment is null").unwrap().first_column();
        assert_eq!(n, vec!["compute-0-2"]);
        let n = db
            .query("select count(*) from nodes where comment is not null")
            .unwrap()
            .first_column();
        assert_eq!(n, vec!["5"]);
    }

    #[test]
    fn update_with_where() {
        let mut db = sample_db();
        let outcome = db.execute("update nodes set rack = 7 where membership = 2").unwrap();
        assert_eq!(outcome, ExecOutcome::Written { affected: 3 });
        let n = db.query("select count(*) from nodes where rack = 7").unwrap().first_column();
        assert_eq!(n, vec!["3"]);
    }

    #[test]
    fn update_set_from_column() {
        let mut db = sample_db();
        db.execute("update nodes set rank = id where name = 'web-1-0'").unwrap();
        let v = db.query("select rank from nodes where name = 'web-1-0'").unwrap().first_column();
        assert_eq!(v, vec!["8"]);
    }

    #[test]
    fn delete_with_and_without_where() {
        let mut db = sample_db();
        let outcome = db.execute("delete from nodes where rack = 1").unwrap();
        assert_eq!(outcome, ExecOutcome::Written { affected: 1 });
        let outcome = db.execute("delete from nodes").unwrap();
        assert_eq!(outcome, ExecOutcome::Written { affected: 5 });
        assert_eq!(db.table("nodes").unwrap().len(), 0);
    }

    #[test]
    fn drop_table() {
        let mut db = sample_db();
        db.execute("drop table memberships").unwrap();
        assert!(db.table("memberships").is_none());
        assert!(matches!(db.execute("drop table memberships"), Err(SqlError::NoSuchTable(_))));
    }

    #[test]
    fn empty_join_short_circuits() {
        let mut db = sample_db();
        db.execute("create table empty (x int)").unwrap();
        let result = db.query("select * from nodes, empty").unwrap();
        assert!(result.rows.is_empty());
    }

    #[test]
    fn render_ascii_looks_like_mysql() {
        let db = sample_db();
        let result = db.query("select id, name from memberships order by id limit 2").unwrap();
        let text = result.render_ascii();
        assert!(text.starts_with("+"));
        assert!(text.contains("| id | name"));
        assert!(text.contains("| 1  | Frontend"));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = sample_db();
        assert!(matches!(db.query("select x from ghost"), Err(SqlError::NoSuchTable(_))));
        assert!(matches!(db.query("select ghost from nodes"), Err(SqlError::NoSuchColumn(_))));
    }

    #[test]
    fn planned_queries_match_scan_exactly() {
        let db = sample_db();
        for sql in [
            "select * from nodes where ip = '10.1.1.1'",
            "select name from nodes where membership = 2 and rank > 0",
            "select nodes.name from nodes, memberships where \
             nodes.membership = memberships.id and memberships.compute = 'yes'",
            "select * from nodes, memberships where nodes.membership = memberships.id",
            "select nodes.name, memberships.name from nodes, memberships where \
             nodes.membership = memberships.id and nodes.rack = 0 order by nodes.id",
            "select name from nodes where id = 4 or id = 5",
            "select name from nodes where comment = 'Compute node' and rank < 2",
            "select count(*) from nodes where membership = 2",
            "select rack, count(*) from nodes where membership = 2 group by rack",
            "select name from nodes where id in (1, 8) and rack = 0",
            "select name from nodes where name like 'compute-%' and membership = 2",
            "select name from nodes where ip = '99.99.99.99'",
            "select name from nodes where comment is null",
            "select nodes.name from nodes, memberships where \
             memberships.id = nodes.membership and nodes.rank = memberships.appliance",
        ] {
            assert_eq!(
                db.query(sql).unwrap(),
                db.query_with(sql, &SCAN).unwrap(),
                "planned result diverged for {sql}"
            );
        }
    }

    #[test]
    fn planned_error_behavior_matches_scan() {
        let db = sample_db();
        for sql in [
            "select name from nodes, memberships where name = 'x'", // ambiguous
            "select name from nodes where ghost = 1",               // no such column
            "select name from ghost where x = 1",                   // no such table
        ] {
            assert_eq!(
                db.query(sql).unwrap_err(),
                db.query_with(sql, &SCAN).unwrap_err(),
                "planned error diverged for {sql}"
            );
        }
    }

    #[test]
    fn point_lookup_touches_only_candidates_via_index() {
        let db = sample_db();
        let r = db.query("select name from nodes where ip = '10.1.1.1'").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Text("frontend-0".into())]]);
        // The probe built an index on nodes.ip.
        assert!(db.table("nodes").unwrap().indexed_columns() >= 1);
    }

    #[test]
    fn explain_point_query_shows_index() {
        let db = sample_db();
        let r = db.query("explain select name from nodes where ip = '10.1.1.1'").unwrap();
        assert_eq!(r.columns, vec!["plan"]);
        let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert!(text.iter().any(|l| l.contains("index(ip = '10.1.1.1')")), "plan was {text:?}");
    }

    #[test]
    fn explain_join_shows_hash_join_and_pushdown() {
        let db = sample_db();
        let r = db
            .query(
                "explain select nodes.name from nodes, memberships where \
                 nodes.membership = memberships.id and memberships.compute = 'yes' \
                 order by nodes.name limit 2",
            )
            .unwrap();
        let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        // The cost-based planner starts from the filtered memberships
        // table and hash-joins nodes into it (reordered from FROM order).
        assert!(
            text.iter().any(|l| l.contains("hash join(memberships.id = nodes.membership)")),
            "plan was {text:?}"
        );
        assert!(text.iter().any(|l| l.contains("filter((memberships.compute = 'yes'))")));
        assert!(text.iter().any(|l| l.contains("join order: memberships, nodes")));
        assert!(text.iter().any(|l| l.contains("[est ")), "steps carry cost annotations: {text:?}");
        assert!(text.iter().any(|l| l.contains("top-2 selection")));
        assert!(text.iter().any(|l| l.contains("limit: 2")));
    }

    #[test]
    fn explain_fallback_mentions_cross_product() {
        let db = sample_db();
        // `name` is ambiguous across the two tables: planning declines.
        let r =
            db.query("explain select nodes.name from nodes, memberships where name = 'x'").unwrap();
        let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert!(text.iter().any(|l| l.contains("cross product")), "plan was {text:?}");
    }

    #[test]
    fn explain_rejects_writes() {
        let mut db = sample_db();
        let err = db.execute("explain delete from nodes").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
    }

    #[test]
    fn explain_runs_readonly() {
        let db = sample_db();
        let r = db.query("explain select * from nodes where id = 1").unwrap();
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn top_k_matches_full_sort_including_ties() {
        let mut db = Database::new();
        db.execute("create table t (a int, b text)").unwrap();
        // Lots of duplicate keys so stability matters.
        for i in 0..40 {
            db.execute(&format!("insert into t values ({}, 'row-{i}')", i % 5)).unwrap();
        }
        for k in [0, 1, 3, 7, 39, 40, 100] {
            let fast = db.query(&format!("select a, b from t order by a limit {k}")).unwrap();
            // Reference: full sort (no limit), truncated by hand.
            let mut full = db.query("select a, b from t order by a").unwrap();
            full.rows.truncate(k);
            assert_eq!(fast.rows, full.rows, "top-k diverged for k={k}");
        }
        // Descending with a secondary key.
        let fast = db.query("select a, b from t order by a desc, b limit 5").unwrap();
        let mut full = db.query("select a, b from t order by a desc, b").unwrap();
        full.rows.truncate(5);
        assert_eq!(fast.rows, full.rows);
    }

    #[test]
    fn render_ascii_aligns_multibyte_utf8() {
        let mut db = Database::new();
        db.execute("create table t (name text, comment text)").unwrap();
        db.execute("insert into t values ('köln-0', 'ascii row')").unwrap();
        db.execute("insert into t values ('plain', 'Grüße aus München ☀')").unwrap();
        let text = db.query("select name, comment from t").unwrap().render_ascii();
        let widths: Vec<usize> = text.lines().map(|l| l.chars().count()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "misaligned table (char widths {widths:?}):\n{text}"
        );
    }

    #[test]
    fn index_stays_correct_across_writes() {
        let mut db = sample_db();
        // Build the index via a read...
        let _ = db.query("select name from nodes where membership = 2").unwrap();
        // ...then mutate through every write path and re-compare.
        db.execute("insert into nodes values (9, 'compute-1-0', 2, 1, 0, '10.9.9.9', NULL)")
            .unwrap();
        let sql = "select name from nodes where membership = 2 order by id";
        assert_eq!(db.query(sql).unwrap(), db.query_with(sql, &SCAN).unwrap());
        db.execute("update nodes set membership = 8 where name = 'compute-0-1'").unwrap();
        assert_eq!(db.query(sql).unwrap(), db.query_with(sql, &SCAN).unwrap());
        db.execute("delete from nodes where membership = 8").unwrap();
        assert_eq!(db.query(sql).unwrap(), db.query_with(sql, &SCAN).unwrap());
    }

    #[test]
    fn coercion_pitfalls_match_scan() {
        let mut db = Database::new();
        db.execute("create table t (id int, tag text)").unwrap();
        for (id, tag) in [(1, "'5'"), (2, "'05'"), (3, "' 5'"), (4, "'x'"), (5, "NULL"), (6, "'6'")]
        {
            db.execute(&format!("insert into t values ({id}, {tag})")).unwrap();
        }
        for sql in [
            "select id from t where tag = '5'",
            "select id from t where tag = '05'",
            "select id from t where tag = ' 5'",
            "select id from t where tag = 5",
            "select id from t where id = '05'",
            "select id from t where tag = 'x'",
            "select id from t where tag = NULL",
        ] {
            assert_eq!(
                db.query(sql).unwrap(),
                db.query_with(sql, &SCAN).unwrap(),
                "coercion diverged for {sql}"
            );
        }
    }
}
