//! Recursive-descent SQL parser for the subset the workloads use:
//! `SELECT` (with DISTINCT, joins, lateral `TABLE(fn(...))`, WHERE,
//! GROUP BY, ORDER BY, LIMIT), `CREATE TABLE`, `CREATE INDEX`,
//! `INSERT … VALUES`, `DELETE`, `DROP`, and the transaction-control
//! statements `BEGIN` / `COMMIT` / `ROLLBACK` (optionally followed by
//! the `TRANSACTION` / `WORK` noise word), `VACUUM` to reclaim dead row
//! versions, `EXPLAIN [ANALYZE]`, and `SET key [=] value` for session
//! options.

use crate::error::{DbError, Result};
use crate::expr::CmpOp;
use crate::sql::ast::{AstExpr, FromItem, Select, SelectItem, Statement};
use crate::sql::lexer::{lex, Sym, Token};
use crate::types::DataType;

/// Most terms (operands, parenthesised groups, calls and `NOT`s) one
/// expression may hold. The parser, and every stage after it down to
/// dropping the tree, walks an expression recursively, so this bound is
/// what keeps one hostile statement from overflowing a thread's stack.
const MAX_TERMS: usize = 256;

/// Parse one statement.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0, terms: 0 };
    let stmt = p.statement()?;
    p.eat_sym(Sym::Semicolon);
    if !p.at_end() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Parse a SELECT (convenience for the planner API).
pub fn parse_select(sql: &str) -> Result<Select> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
        other => Err(DbError::Parse(format!("expected SELECT, got {other:?}"))),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Terms of the current top-level expression, against [`MAX_TERMS`].
    terms: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> DbError {
        DbError::Parse(format!("{msg} (near token {} = {:?})", self.pos, self.tokens.get(self.pos)))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected keyword {kw}")))
        }
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if self.peek() == Some(&Token::Sym(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Sym) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {s:?}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s.clone()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.peek().is_some_and(|t| t.is_kw("select")) {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("create") {
            if self.eat_kw("table") {
                return self.create_table();
            }
            if self.eat_kw("index") {
                return self.create_index();
            }
            return Err(self.err("expected TABLE or INDEX after CREATE"));
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?;
            let predicate = if self.eat_kw("where") { Some(self.expr()?) } else { None };
            return Ok(Statement::Delete { table, predicate });
        }
        if self.eat_kw("drop") {
            let index = if self.eat_kw("index") {
                true
            } else {
                self.expect_kw("table")?;
                false
            };
            let name = self.ident()?;
            return Ok(Statement::Drop { index, name });
        }
        if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            if self.peek().is_some_and(|t| t.is_kw("explain")) {
                return Err(self.err("cannot EXPLAIN an EXPLAIN"));
            }
            return Ok(Statement::Explain { analyze, stmt: Box::new(self.statement()?) });
        }
        if self.eat_kw("set") {
            let key = self.ident()?;
            self.eat_sym(Sym::Eq);
            return Ok(Statement::Set { key, value: self.ident()? });
        }
        if self.eat_kw("begin") {
            self.eat_txn_noise();
            return Ok(Statement::Begin);
        }
        if self.eat_kw("commit") {
            self.eat_txn_noise();
            return Ok(Statement::Commit);
        }
        if self.eat_kw("rollback") {
            self.eat_txn_noise();
            return Ok(Statement::Rollback);
        }
        if self.eat_kw("vacuum") {
            return Ok(Statement::Vacuum);
        }
        Err(self.err(
            "expected SELECT, CREATE, INSERT, DELETE, DROP, EXPLAIN, SET, BEGIN, COMMIT, ROLLBACK, \
             or VACUUM",
        ))
    }

    /// The optional `TRANSACTION` / `WORK` noise word after
    /// BEGIN/COMMIT/ROLLBACK.
    fn eat_txn_noise(&mut self) {
        let _ = self.eat_kw("transaction") || self.eat_kw("work");
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty_name = self.ident()?;
            let ty = DataType::parse(&ty_name)
                .ok_or_else(|| self.err(&format!("unknown type {ty_name:?}")))?;
            columns.push((col, ty));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = vec![self.ident()?];
        while self.eat_sym(Sym::Comma) {
            columns.push(self.ident()?);
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateIndex { name, table, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat_sym(Sym::Comma) {
                row.push(self.expr()?);
            }
            self.expect_sym(Sym::RParen)?;
            rows.push(row);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let mut q = Select { distinct: self.eat_kw("distinct"), ..Default::default() };

        loop {
            if self.eat_sym(Sym::Star) {
                q.items.push(SelectItem::Wildcard);
            } else if let [Token::Ident(alias), Token::Sym(Sym::Dot), Token::Sym(Sym::Star)] =
                self.tokens.get(self.pos..self.pos + 3).unwrap_or(&[])
            {
                q.items.push(SelectItem::QualifiedWildcard(alias.clone()));
                self.pos += 3;
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    // Bare alias (identifier not followed by '.' or '(' and
                    // not a clause keyword).
                    match self.peek() {
                        Some(Token::Ident(s)) if !is_clause_kw(s) => {
                            let a = s.clone();
                            self.pos += 1;
                            Some(a)
                        }
                        _ => None,
                    }
                };
                q.items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }

        self.expect_kw("from")?;
        loop {
            q.from.push(self.parse_from_item()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }

        if self.eat_kw("where") {
            q.where_clause = Some(self.expr()?);
        }
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                q.group_by.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                q.order_by.push((e, asc));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Num(n)) => q.limit = Some(*n),
                _ => return Err(self.err("expected row count after LIMIT")),
            }
        }
        Ok(q)
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        if self.peek().is_some_and(|t| t.is_kw("table")) {
            // TABLE(fn(args)) alias
            self.pos += 1;
            self.expect_sym(Sym::LParen)?;
            let func = self.ident()?;
            self.expect_sym(Sym::LParen)?;
            let mut args = Vec::new();
            if !self.eat_sym(Sym::RParen) {
                args.push(self.expr()?);
                while self.eat_sym(Sym::Comma) {
                    args.push(self.expr()?);
                }
                self.expect_sym(Sym::RParen)?;
            }
            self.expect_sym(Sym::RParen)?;
            self.eat_kw("as");
            let alias = self.ident()?;
            Ok(FromItem::TableFunction { func, args, alias })
        } else {
            let name = self.ident()?;
            let alias = match self.peek() {
                Some(Token::Ident(s)) if !is_clause_kw(s) => {
                    let a = s.clone();
                    self.pos += 1;
                    Some(a)
                }
                _ => {
                    if self.eat_kw("as") {
                        Some(self.ident()?)
                    } else {
                        None
                    }
                }
            };
            Ok(FromItem::Table { name, alias })
        }
    }

    /// One top-level expression, with a fresh [`MAX_TERMS`] budget.
    fn expr(&mut self) -> Result<AstExpr> {
        self.terms = 0;
        self.or_expr()
    }

    /// Count one term against [`MAX_TERMS`].
    fn term(&mut self) -> Result<()> {
        self.terms += 1;
        if self.terms > MAX_TERMS {
            return Err(self.err(&format!("expression has more than {MAX_TERMS} terms")));
        }
        Ok(())
    }

    // Expression grammar: or_expr > and_expr > not_expr > predicate > primary
    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = AstExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = AstExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        self.term()?;
        if self.eat_kw("not") {
            let e = self.not_expr()?;
            return Ok(AstExpr::Not(Box::new(e)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<AstExpr> {
        let lhs = self.additive()?;
        // Comparison operators
        let op = match self.peek() {
            Some(Token::Sym(Sym::Eq)) => Some(CmpOp::Eq),
            Some(Token::Sym(Sym::Ne)) => Some(CmpOp::Ne),
            Some(Token::Sym(Sym::Lt)) => Some(CmpOp::Lt),
            Some(Token::Sym(Sym::Le)) => Some(CmpOp::Le),
            Some(Token::Sym(Sym::Gt)) => Some(CmpOp::Gt),
            Some(Token::Sym(Sym::Ge)) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.additive()?;
            return Ok(AstExpr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
        }
        // [NOT] LIKE
        let negated = if self.peek().is_some_and(|t| t.is_kw("not"))
            && self.tokens.get(self.pos + 1).is_some_and(|t| t.is_kw("like"))
        {
            self.pos += 2;
            Some(true)
        } else if self.eat_kw("like") {
            Some(false)
        } else {
            None
        };
        if let Some(negated) = negated {
            match self.next() {
                Some(Token::Str(p)) => {
                    let p = p.clone();
                    return Ok(AstExpr::Like { expr: Box::new(lhs), pattern: p, negated });
                }
                _ => return Err(self.err("expected string literal after LIKE")),
            }
        }
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(AstExpr::IsNull { expr: Box::new(lhs), negated });
        }
        // [NOT] IN (e1, e2, …) — desugared to a chain of OR-ed equalities.
        let in_negated = if self.peek().is_some_and(|t| t.is_kw("not"))
            && self.tokens.get(self.pos + 1).is_some_and(|t| t.is_kw("in"))
        {
            self.pos += 2;
            Some(true)
        } else if self.eat_kw("in") {
            Some(false)
        } else {
            None
        };
        if let Some(negated) = in_negated {
            self.expect_sym(Sym::LParen)?;
            let mut expr: Option<AstExpr> = None;
            loop {
                let item = self.additive()?;
                let eq =
                    AstExpr::Cmp { op: CmpOp::Eq, lhs: Box::new(lhs.clone()), rhs: Box::new(item) };
                expr = Some(match expr {
                    None => eq,
                    Some(acc) => AstExpr::Or(Box::new(acc), Box::new(eq)),
                });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            let e = expr.ok_or_else(|| self.err("IN list cannot be empty"))?;
            return Ok(if negated { AstExpr::Not(Box::new(e)) } else { e });
        }
        // [NOT] BETWEEN lo AND hi — desugared to lo <= e AND e <= hi.
        let between_negated = if self.peek().is_some_and(|t| t.is_kw("not"))
            && self.tokens.get(self.pos + 1).is_some_and(|t| t.is_kw("between"))
        {
            self.pos += 2;
            Some(true)
        } else if self.eat_kw("between") {
            Some(false)
        } else {
            None
        };
        if let Some(negated) = between_negated {
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            let e = AstExpr::And(
                Box::new(AstExpr::Cmp {
                    op: CmpOp::Ge,
                    lhs: Box::new(lhs.clone()),
                    rhs: Box::new(lo),
                }),
                Box::new(AstExpr::Cmp { op: CmpOp::Le, lhs: Box::new(lhs), rhs: Box::new(hi) }),
            );
            return Ok(if negated { AstExpr::Not(Box::new(e)) } else { e });
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym(Sym::Plus)) => crate::expr::ArithOp::Add,
                Some(Token::Sym(Sym::Minus)) => crate::expr::ArithOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = AstExpr::Arith { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut lhs = self.primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym(Sym::Star)) => crate::expr::ArithOp::Mul,
                Some(Token::Sym(Sym::Slash)) => crate::expr::ArithOp::Div,
                Some(Token::Sym(Sym::Percent)) => crate::expr::ArithOp::Mod,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.primary()?;
            lhs = AstExpr::Arith { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
    }

    /// Fold a lexed magnitude into an `i64`, applying an optional unary
    /// minus. The magnitude is unsigned precisely so that
    /// `-9223372036854775808` (`i64::MIN`, whose absolute value does not
    /// fit a positive `i64`) round-trips.
    fn fold_num(&self, magnitude: u64, negated: bool) -> Result<i64> {
        if negated {
            if magnitude <= i64::MAX as u64 {
                Ok(-(magnitude as i64))
            } else if magnitude == i64::MIN.unsigned_abs() {
                Ok(i64::MIN)
            } else {
                Err(self.err(&format!("number -{magnitude} out of range for INTEGER")))
            }
        } else if magnitude <= i64::MAX as u64 {
            Ok(magnitude as i64)
        } else {
            Err(self.err(&format!("number {magnitude} out of range for INTEGER")))
        }
    }

    fn primary(&mut self) -> Result<AstExpr> {
        self.term()?;
        match self.peek().cloned() {
            Some(Token::Num(n)) => {
                self.pos += 1;
                Ok(AstExpr::Num(self.fold_num(n, false)?))
            }
            Some(Token::Sym(Sym::Minus)) => {
                self.pos += 1;
                let n = match self.next() {
                    Some(Token::Num(n)) => *n,
                    _ => return Err(self.err("expected number after unary minus")),
                };
                Ok(AstExpr::Num(self.fold_num(n, true)?))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(AstExpr::Str(s))
            }
            Some(Token::Sym(Sym::LParen)) => {
                self.pos += 1;
                let e = self.or_expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(id)) => {
                self.pos += 1;
                if id.eq_ignore_ascii_case("null") {
                    return Ok(AstExpr::Null);
                }
                if self.eat_sym(Sym::LParen) {
                    return self.call(id);
                }
                if self.eat_sym(Sym::Dot) {
                    let name = self.ident()?;
                    return Ok(AstExpr::Column { qualifier: Some(id), name });
                }
                Ok(AstExpr::Column { qualifier: None, name: id })
            }
            other => Err(self.err(&format!("unexpected token {other:?} in expression"))),
        }
    }

    /// Parse a call after `name(` was consumed.
    fn call(&mut self, name: String) -> Result<AstExpr> {
        let lname = name.to_ascii_lowercase();
        let is_agg = matches!(lname.as_str(), "count" | "sum" | "min" | "max");
        if is_agg {
            if self.eat_sym(Sym::Star) {
                self.expect_sym(Sym::RParen)?;
                if lname != "count" {
                    return Err(self.err("only COUNT can take *"));
                }
                return Ok(AstExpr::Agg { func: lname, arg: None, distinct: false });
            }
            let distinct = self.eat_kw("distinct");
            let arg = self.or_expr()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(AstExpr::Agg { func: lname, arg: Some(Box::new(arg)), distinct });
        }
        let mut args = Vec::new();
        if !self.eat_sym(Sym::RParen) {
            args.push(self.or_expr()?);
            while self.eat_sym(Sym::Comma) {
                args.push(self.or_expr()?);
            }
            self.expect_sym(Sym::RParen)?;
        }
        Ok(AstExpr::Func { name, args })
    }
}

fn is_clause_kw(s: &str) -> bool {
    matches!(
        s.to_ascii_lowercase().as_str(),
        "from"
            | "where"
            | "group"
            | "order"
            | "limit"
            | "and"
            | "or"
            | "not"
            | "like"
            | "is"
            | "as"
            | "on"
            | "in"
            | "between"
            | "asc"
            | "desc"
            | "table"
            | "values"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_transaction_statements() {
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("begin transaction").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("BEGIN WORK").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("commit work").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
        assert_eq!(parse_statement("ROLLBACK TRANSACTION").unwrap(), Statement::Rollback);
        // Trailing garbage is still rejected.
        assert!(parse_statement("BEGIN EXTRA").is_err());
    }

    #[test]
    fn parses_vacuum_statement() {
        assert_eq!(parse_statement("VACUUM").unwrap(), Statement::Vacuum);
        assert_eq!(parse_statement("vacuum").unwrap(), Statement::Vacuum);
        assert!(parse_statement("VACUUM t").is_err());
    }

    #[test]
    fn parses_set_with_and_without_equals() {
        let want = Statement::Set { key: "force_join".into(), value: "hash".into() };
        assert_eq!(parse_statement("SET force_join hash").unwrap(), want);
        assert_eq!(parse_statement("set force_join = hash;").unwrap(), want);
        // A key with no value, or a stray token after it, is a parse error.
        assert!(matches!(parse_statement("SET force_join"), Err(DbError::Parse(_))));
        assert!(matches!(parse_statement("SET force_join ="), Err(DbError::Parse(_))));
        assert!(parse_statement("SET force_join hash seq").is_err());
    }

    #[test]
    fn parses_explain_and_explain_analyze() {
        match parse_statement("EXPLAIN ANALYZE SELECT a FROM t").unwrap() {
            Statement::Explain { analyze: true, stmt } => {
                assert!(matches!(*stmt, Statement::Select(_)))
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_statement("explain DELETE FROM t WHERE a = 1").unwrap() {
            Statement::Explain { analyze: false, stmt } => {
                assert!(matches!(*stmt, Statement::Delete { .. }))
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_statement("EXPLAIN ANALYZE").is_err());
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let n = 100_000;
        let hostile = [
            format!("SELECT a FROM t WHERE {}a = 1{}", "(".repeat(n), ")".repeat(n)),
            format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(n)),
            format!("SELECT a FROM t WHERE a = 1{}", " + 1".repeat(n)),
            format!("SELECT a FROM t WHERE a IN (1{})", ", 1".repeat(n)),
            format!("SELECT {}a{} FROM t", "lower(".repeat(n), ")".repeat(n)),
            format!("{}SELECT a FROM t", "EXPLAIN ".repeat(n)),
        ];
        for sql in &hostile {
            let err = parse_statement(sql).unwrap_err();
            assert!(matches!(err, DbError::Parse(_)), "{err}");
        }
        // The budget is per expression: wide statements of small ones pass.
        let rows = vec!["(1, 'x')"; 5_000].join(", ");
        assert!(parse_statement(&format!("INSERT INTO t VALUES {rows}")).is_ok());
        let items = vec!["a + 1"; 500].join(", ");
        assert!(parse_statement(&format!("SELECT {items} FROM t")).is_ok());
        let ids = (0..250).map(|i| i.to_string()).collect::<Vec<_>>().join(", ");
        assert!(parse_statement(&format!("SELECT a FROM t WHERE a IN ({ids})")).is_ok());
    }

    #[test]
    fn parses_simple_select() {
        let q = parse_select("SELECT a, b FROM t WHERE a = 1").unwrap();
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.from.len(), 1);
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn parses_join_query_with_aliases() {
        let q = parse_select(
            "SELECT s.speech_speaker, l.line_value \
             FROM speech s, line l \
             WHERE l.line_parentID = s.speechID AND l.line_value LIKE '%friend%'",
        )
        .unwrap();
        assert_eq!(q.from.len(), 2);
        let conjuncts = q.where_clause.unwrap().conjuncts();
        assert_eq!(conjuncts.len(), 2);
        assert!(matches!(&conjuncts[1], AstExpr::Like { .. }));
    }

    #[test]
    fn parses_table_function() {
        let q = parse_select(
            "SELECT DISTINCT u.out FROM speakers, TABLE(unnest(speaker, 'speaker')) u",
        )
        .unwrap();
        assert!(q.distinct);
        match &q.from[1] {
            FromItem::TableFunction { func, args, alias } => {
                assert_eq!(func, "unnest");
                assert_eq!(args.len(), 2);
                assert_eq!(alias, "u");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_aggregates() {
        let q = parse_select(
            "SELECT author, COUNT(*), COUNT(DISTINCT s) FROM t GROUP BY author ORDER BY author DESC LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].1);
        assert_eq!(q.limit, Some(5));
        match &q.items[2] {
            SelectItem::Expr { expr: AstExpr::Agg { distinct, .. }, .. } => assert!(distinct),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_function_calls_in_select_and_where() {
        let q = parse_select(
            "SELECT getElm(speech_line, 'LINE', 'LINE', 'friend') \
             FROM speech WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1",
        )
        .unwrap();
        match &q.items[0] {
            SelectItem::Expr { expr: AstExpr::Func { name, args }, .. } => {
                assert_eq!(name, "getElm");
                assert_eq!(args.len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_create_table_and_index() {
        let s = parse_statement(
            "CREATE TABLE speech (speechID INTEGER, speech_speaker XADT, note VARCHAR)",
        )
        .unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "speech");
                assert_eq!(columns[1].1, DataType::Xadt);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = parse_statement("CREATE INDEX i ON t (a, b)").unwrap();
        assert!(matches!(s, Statement::CreateIndex { columns, .. } if columns.len() == 2));
    }

    #[test]
    fn parses_insert() {
        let s = parse_statement("INSERT INTO t VALUES (1, 'x'), (2, NULL)").unwrap();
        match s {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], AstExpr::Null);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn i64_extremes_parse() {
        // i64::MIN used to fail with "bad number" because the magnitude
        // was parsed as a positive i64 before the sign was applied.
        let q = parse_select("SELECT a FROM t WHERE a = -9223372036854775808").unwrap();
        let cj = q.where_clause.unwrap().conjuncts();
        assert!(matches!(&cj[0], AstExpr::Cmp { rhs, .. } if **rhs == AstExpr::Num(i64::MIN)));
        let q = parse_select("SELECT a FROM t WHERE a = 9223372036854775807").unwrap();
        let cj = q.where_clause.unwrap().conjuncts();
        assert!(matches!(&cj[0], AstExpr::Cmp { rhs, .. } if **rhs == AstExpr::Num(i64::MAX)));
        // One past either end is a clean parse error.
        assert!(parse_select("SELECT a FROM t WHERE a = 9223372036854775808").is_err());
        assert!(parse_select("SELECT a FROM t WHERE a = -9223372036854775809").is_err());
        // INSERT literals go through the same fold.
        let s = parse_statement("INSERT INTO t VALUES (-9223372036854775808)").unwrap();
        match s {
            Statement::Insert { rows, .. } => assert_eq!(rows[0][0], AstExpr::Num(i64::MIN)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_numbers_and_not_like() {
        let q = parse_select("SELECT a FROM t WHERE a >= -5 AND b NOT LIKE '%x%'").unwrap();
        let cj = q.where_clause.unwrap().conjuncts();
        assert!(matches!(&cj[0], AstExpr::Cmp { rhs, .. } if **rhs == AstExpr::Num(-5)));
        assert!(matches!(&cj[1], AstExpr::Like { negated: true, .. }));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("SELEC x FROM t").is_err());
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("SELECT a FROM t WHERE").is_err());
        assert!(parse_statement("SELECT a FROM t extra garbage here ,").is_err());
    }

    #[test]
    fn is_null_predicates() {
        let q = parse_select("SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL").unwrap();
        let cj = q.where_clause.unwrap().conjuncts();
        assert!(matches!(&cj[0], AstExpr::IsNull { negated: true, .. }));
        assert!(matches!(&cj[1], AstExpr::IsNull { negated: false, .. }));
    }
}
