//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query        := union_term ( UNION ALL union_term )*        -- left-associative
//! union_term   := select_block | '(' query ')'
//! select_block := SELECT select_list FROM from_item
//!                 [ [INNER] JOIN from_item ON column '=' column ]
//!                 [ WHERE condition ( AND condition )* ]
//!                 [ GROUP BY column ( ',' column )* ]
//!                 [ ORDER BY column [ASC|DESC] ( ',' column [ASC|DESC] )* ]
//!                 [ LIMIT number ]
//! select_list  := '*' | column ( ',' column )*
//! from_item    := ident | '(' query ')'
//! condition    := column cmp value | value cmp column
//!               | column BETWEEN value AND value
//! cmp          := '=' | '<' | '<=' | '>' | '>=' | '!=' | '<>'
//! value        := ['-'] number | '?'
//! column       := ident [ '.' ident ]
//! ```
//!
//! `?` placeholders are numbered left to right in lexical order. The parser
//! is purely syntactic: names, parameter arity, and clause legality are the
//! rewrite pipeline's business.
//!
//! Queries nest at most [`MAX_NESTING_DEPTH`] levels deep. Each
//! parenthesized query — `( query )` as a union operand or as a derived
//! table — is one level, and so is each `UNION ALL` term after a chain's
//! first: the chain is left-deep, so every extra term puts the terms before
//! it one level further down the tree. Past the limit the parser returns
//! [`ErrorKind::NestingTooDeep`] pointing at the `(` or `UNION` that crossed
//! it, so neither the parser's recursion nor any later walk over the tree
//! can overflow the stack.

use crate::ast::{
    BetweenCond, CmpCond, ColumnRef, Condition, FromItem, JoinClause, Limit, OrderKey, QueryExpr,
    SelectBlock, SelectList, Span, Value,
};
use crate::diag::{ErrorKind, Result, SqlError};
use crate::lexer::{lex, Token, TokenKind};
use adas_workload::plan::CmpOp;

/// Deepest nesting the parser accepts, counting parenthesized queries and
/// extra `UNION ALL` terms alike. Generator plans render a few levels deep;
/// the limit leaves ample headroom while keeping the parser's recursion,
/// and every later walk over the tree, far below any thread's stack.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Parses a complete query, consuming all input.
pub fn parse(sql: &str) -> Result<QueryExpr> {
    let tokens = lex(sql)?;
    let mut parser = Parser {
        src: sql,
        tokens,
        pos: 0,
        next_param: 0,
        depth: 0,
        reach: 0,
    };
    let query = parser.query()?;
    let token = *parser.peek();
    if token.kind != TokenKind::Eof {
        return Err(SqlError::new(
            ErrorKind::TrailingInput {
                found: token.describe(sql),
            },
            token.span,
        ));
    }
    Ok(query)
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    next_param: usize,
    /// Parenthesized queries currently open around the parse position.
    depth: usize,
    /// Deepest level the query being parsed reaches so far: `depth` at its
    /// start, raised by nested parentheses and by its own and nested
    /// `UNION ALL` chains.
    reach: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// The source text a token covers (identifier spelling, etc.).
    fn text(&self, token: &Token) -> &str {
        &self.src[token.span.start..token.span.end]
    }

    fn advance(&mut self) -> Token {
        let token = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        token
    }

    /// Span of the most recently consumed token.
    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn error_here(&self, expected: &str) -> SqlError {
        let token = self.peek();
        let kind = if token.kind == TokenKind::Eof {
            ErrorKind::UnexpectedEof {
                expected: expected.to_string(),
            }
        } else {
            ErrorKind::UnexpectedToken {
                expected: expected.to_string(),
                found: token.describe(self.src),
            }
        };
        SqlError::new(kind, token.span)
    }

    fn expect(&mut self, kind: &TokenKind, expected: &str) -> Result<Token> {
        if &self.peek().kind == kind {
            Ok(self.advance())
        } else {
            Err(self.error_here(expected))
        }
    }

    /// True when the next token is the given keyword (case-insensitive).
    fn at_keyword(&self, kw: &str) -> bool {
        let token = self.peek();
        token.kind == TokenKind::Ident && self.text(token).eq_ignore_ascii_case(kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Token> {
        if self.at_keyword(kw) {
            Ok(self.advance())
        } else {
            Err(self.error_here(&format!("`{kw}`")))
        }
    }

    fn ident(&mut self, expected: &str) -> Result<(String, Span)> {
        if self.peek().kind == TokenKind::Ident {
            let token = self.advance();
            Ok((self.text(&token).to_string(), token.span))
        } else {
            Err(self.error_here(expected))
        }
    }

    /// Parses a `query` inside the `(` at `open`, which `union_term` and
    /// `parse_from_item` have just consumed: the one place the parser's
    /// recursion deepens, so the one place `depth` is counted.
    fn nested_query(&mut self, open: Span) -> Result<QueryExpr> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(SqlError::new(
                ErrorKind::NestingTooDeep {
                    limit: MAX_NESTING_DEPTH,
                },
                open,
            ));
        }
        self.depth += 1;
        let query = self.query();
        self.depth -= 1;
        query
    }

    /// Parses a left-deep `UNION ALL` chain. Its terms reach at most
    /// `reach`; the `n`-th extra term adds `n` levels above the deepest of
    /// them, so the chain counts against the same limit as parentheses.
    fn query(&mut self) -> Result<QueryExpr> {
        let outer_reach = std::mem::replace(&mut self.reach, self.depth);
        let mut left = self.union_term()?;
        let mut extra = 0;
        while self.at_keyword("UNION") {
            let union = self.advance().span;
            self.expect_keyword("ALL")?;
            let right = self.union_term()?;
            extra += 1;
            if self.reach + extra > MAX_NESTING_DEPTH {
                return Err(SqlError::new(
                    ErrorKind::NestingTooDeep {
                        limit: MAX_NESTING_DEPTH,
                    },
                    union,
                ));
            }
            let span = left.span().join(right.span());
            left = QueryExpr::Union {
                left: Box::new(left),
                right: Box::new(right),
                span,
            };
        }
        self.reach = outer_reach.max(self.reach + extra);
        Ok(left)
    }

    fn union_term(&mut self) -> Result<QueryExpr> {
        if self.peek().kind == TokenKind::LParen {
            let open = self.advance().span;
            let query = self.nested_query(open)?;
            self.expect(&TokenKind::RParen, "`)`")?;
            Ok(query)
        } else {
            Ok(QueryExpr::Select(Box::new(self.select_block()?)))
        }
    }

    fn select_block(&mut self) -> Result<SelectBlock> {
        let start = self.expect_keyword("SELECT")?.span;
        let select = self.select_list()?;
        self.expect_keyword("FROM")?;
        let from = self.parse_from_item()?;

        let join = if self.at_keyword("JOIN") || self.at_keyword("INNER") {
            let join_start = self.peek().span;
            if self.eat_keyword("INNER") {
                self.expect_keyword("JOIN")?;
            } else {
                self.advance();
            }
            let right = self.parse_from_item()?;
            self.expect_keyword("ON")?;
            let left_key = self.column()?;
            self.expect(&TokenKind::Eq, "`=`")?;
            let right_key = self.column()?;
            Some(JoinClause {
                right,
                span: join_start.join(self.prev_span()),
                left_key,
                right_key,
            })
        } else {
            None
        };

        let mut conditions = Vec::new();
        if self.eat_keyword("WHERE") {
            conditions.push(self.condition()?);
            while self.eat_keyword("AND") {
                conditions.push(self.condition()?);
            }
        }

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.column()?);
            while self.peek().kind == TokenKind::Comma {
                self.advance();
                group_by.push(self.column()?);
            }
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let column = self.column()?;
                let key_start = column.span;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderKey {
                    column,
                    desc,
                    span: key_start.join(self.prev_span()),
                });
                if self.peek().kind == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            let kw_span = self.prev_span();
            match self.peek().kind {
                TokenKind::Number(rows) => {
                    self.advance();
                    Some(Limit {
                        rows,
                        span: kw_span.join(self.prev_span()),
                    })
                }
                _ => return Err(self.error_here("a row count")),
            }
        } else {
            None
        };

        Ok(SelectBlock {
            select,
            from,
            join,
            conditions,
            group_by,
            order_by,
            limit,
            span: start.join(self.prev_span()),
        })
    }

    fn select_list(&mut self) -> Result<SelectList> {
        if self.peek().kind == TokenKind::Star {
            let token = self.advance();
            return Ok(SelectList::Star(token.span));
        }
        let mut columns = vec![self.column()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            columns.push(self.column()?);
        }
        Ok(SelectList::Columns(columns))
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        match &self.peek().kind {
            TokenKind::LParen => {
                let start = self.advance().span;
                let query = self.nested_query(start)?;
                let end = self.expect(&TokenKind::RParen, "`)`")?.span;
                Ok(FromItem::Derived {
                    query: Box::new(query),
                    span: start.join(end),
                })
            }
            TokenKind::Ident => {
                let (name, span) = self.ident("a table name")?;
                Ok(FromItem::Table { name, span })
            }
            _ => Err(self.error_here("a table name or `(`")),
        }
    }

    fn column(&mut self) -> Result<ColumnRef> {
        let (first, first_span) = self.ident("a column name")?;
        if self.peek().kind == TokenKind::Dot {
            self.advance();
            let (name, name_span) = self.ident("a column name")?;
            Ok(ColumnRef {
                qualifier: Some((first, first_span)),
                name,
                span: first_span.join(name_span),
                resolved: None,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                name: first,
                span: first_span,
                resolved: None,
            })
        }
    }

    fn condition(&mut self) -> Result<Condition> {
        // A value on the left means a flipped comparison.
        if matches!(
            self.peek().kind,
            TokenKind::Number(_) | TokenKind::Minus | TokenKind::Question
        ) {
            let value = self.value()?;
            let op = self.cmp_op()?;
            let column = self.column()?;
            let span = value.span().join(column.span);
            return Ok(Condition::Cmp(CmpCond {
                column,
                op,
                value,
                flipped: true,
                span,
            }));
        }
        let column = self.column()?;
        if self.eat_keyword("BETWEEN") {
            let low = self.value()?;
            self.expect_keyword("AND")?;
            let high = self.value()?;
            let span = column.span.join(high.span());
            return Ok(Condition::Between(BetweenCond {
                column,
                low,
                high,
                span,
            }));
        }
        let op = self.cmp_op()?;
        let value = self.value()?;
        let span = column.span.join(value.span());
        Ok(Condition::Cmp(CmpCond {
            column,
            op,
            value,
            flipped: false,
            span,
        }))
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        let op = match self.peek().kind {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            TokenKind::Ne => CmpOp::Ne,
            _ => return Err(self.error_here("a comparison operator")),
        };
        self.advance();
        Ok(op)
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek().kind {
            TokenKind::Question => {
                let token = self.advance();
                let index = self.next_param;
                self.next_param += 1;
                Ok(Value::Param {
                    index,
                    span: token.span,
                    bound: None,
                })
            }
            TokenKind::Minus => {
                let minus = self.advance();
                match self.peek().kind {
                    TokenKind::Number(magnitude) => {
                        let token = self.advance();
                        let span = minus.span.join(token.span);
                        if magnitude > i64::MIN.unsigned_abs() {
                            return Err(SqlError::new(ErrorKind::NumberTooLarge, span));
                        }
                        Ok(Value::Literal {
                            value: (magnitude as i128).wrapping_neg() as i64,
                            span,
                        })
                    }
                    _ => Err(self.error_here("a number")),
                }
            }
            TokenKind::Number(magnitude) => {
                let token = self.advance();
                if magnitude > i64::MAX as u64 {
                    return Err(SqlError::new(ErrorKind::NumberTooLarge, token.span));
                }
                Ok(Value::Literal {
                    value: magnitude as i64,
                    span: token.span,
                })
            }
            _ => Err(self.error_here("a value (number or `?`)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_block() {
        let q = parse(
            "SELECT user_id, region_id FROM events JOIN users ON events.user_id = users.user_id \
             WHERE event_type = 7 AND ts_hour BETWEEN 1 AND ? GROUP BY region_id \
             ORDER BY user_id DESC LIMIT 10",
        )
        .unwrap();
        let QueryExpr::Select(block) = q else {
            panic!("expected a select block")
        };
        assert!(matches!(block.select, SelectList::Columns(ref c) if c.len() == 2));
        assert!(block.join.is_some());
        assert_eq!(block.conditions.len(), 2);
        assert!(matches!(block.conditions[1], Condition::Between(_)));
        assert_eq!(block.group_by.len(), 1);
        assert_eq!(block.order_by.len(), 1);
        assert!(block.order_by[0].desc);
        assert_eq!(block.limit.unwrap().rows, 10);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            parse("select * from events where user_id = 1").unwrap(),
            parse("SELECT * FROM events WHERE user_id = 1").unwrap()
        );
    }

    #[test]
    fn unions_are_left_associative() {
        let q =
            parse("SELECT * FROM a UNION ALL SELECT * FROM b UNION ALL SELECT * FROM c").unwrap();
        let QueryExpr::Union { left, right, .. } = q else {
            panic!("expected a union")
        };
        assert!(matches!(*left, QueryExpr::Union { .. }));
        assert!(matches!(*right, QueryExpr::Select(_)));
        // Parenthesized right operand nests the other way.
        let q =
            parse("SELECT * FROM a UNION ALL (SELECT * FROM b UNION ALL SELECT * FROM c)").unwrap();
        let QueryExpr::Union { left, right, .. } = q else {
            panic!("expected a union")
        };
        assert!(matches!(*left, QueryExpr::Select(_)));
        assert!(matches!(*right, QueryExpr::Union { .. }));
    }

    #[test]
    fn params_number_lexically() {
        let q = parse("SELECT * FROM (SELECT * FROM t WHERE a = ?) WHERE b = ? AND c = ?").unwrap();
        let mut indices = Vec::new();
        q.for_each_block(&mut |block| {
            for cond in &block.conditions {
                if let Condition::Cmp(c) = cond {
                    if let Value::Param { index, .. } = c.value {
                        indices.push(index);
                    }
                }
            }
        });
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn flipped_comparisons_are_marked() {
        let q = parse("SELECT * FROM t WHERE 5 < a").unwrap();
        let QueryExpr::Select(block) = q else {
            panic!("expected a select block")
        };
        let Condition::Cmp(c) = &block.conditions[0] else {
            panic!("expected a comparison")
        };
        assert!(c.flipped);
        assert_eq!(c.op, CmpOp::Lt);
    }

    #[test]
    fn negative_and_extreme_literals() {
        let q = parse(&format!("SELECT * FROM t WHERE a = -{}", 1u128 << 63)).unwrap();
        let QueryExpr::Select(block) = q else {
            panic!("expected a select block")
        };
        let Condition::Cmp(c) = &block.conditions[0] else {
            panic!("expected a comparison")
        };
        assert_eq!(c.value.concrete(), Some(i64::MIN));
        assert!(parse(&format!("SELECT * FROM t WHERE a = {}", 1u64 << 63)).is_err());
    }

    /// `depth` parenthesized levels around a minimal query.
    fn nested(depth: usize) -> String {
        format!("{}SELECT * FROM t{}", "(".repeat(depth), ")".repeat(depth))
    }

    /// `depth` levels of derived tables.
    fn nested_derived(depth: usize) -> String {
        format!(
            "{}SELECT * FROM t{}",
            "SELECT * FROM (".repeat(depth),
            ")".repeat(depth)
        )
    }

    #[test]
    fn nesting_at_the_limit_is_accepted() {
        assert!(parse(&nested(MAX_NESTING_DEPTH)).is_ok());
        assert!(parse(&nested_derived(MAX_NESTING_DEPTH)).is_ok());
    }

    #[test]
    fn nesting_past_the_limit_points_at_the_crossing_paren() {
        let too_deep = ErrorKind::NestingTooDeep {
            limit: MAX_NESTING_DEPTH,
        };
        let err = parse(&nested(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert_eq!(err.kind, too_deep);
        let at = MAX_NESTING_DEPTH; // byte offset of the (limit + 1)-th `(`
        assert_eq!((err.span.start, err.span.end), (at, at + 1));

        let sql = nested_derived(MAX_NESTING_DEPTH + 1);
        let err = parse(&sql).unwrap_err();
        assert_eq!(err.kind, too_deep);
        let at = (MAX_NESTING_DEPTH + 1) * "SELECT * FROM (".len() - 1;
        assert_eq!(&sql[err.span.start..err.span.end], "(");
        assert_eq!(err.span.start, at);
    }

    #[test]
    fn mixed_union_and_derived_nesting_counts_both() {
        // Alternate the two re-entry points: each level is one `(`.
        let mut sql = String::from("SELECT * FROM t");
        for level in 0..=MAX_NESTING_DEPTH {
            sql = if level % 2 == 0 {
                format!("SELECT * FROM t UNION ALL ({sql})")
            } else {
                format!("SELECT * FROM ({sql})")
            };
        }
        let err = parse(&sql).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::NestingTooDeep { .. }));
    }

    #[test]
    fn pathological_nesting_is_rejected_without_overflow() {
        // Runs on a test thread's default stack in debug builds: without
        // the limit this recursion overflows and aborts the process.
        let err = parse(&nested(100_000)).unwrap_err();
        assert_eq!(
            err.kind,
            ErrorKind::NestingTooDeep {
                limit: MAX_NESTING_DEPTH
            }
        );
        let err = parse(&nested_derived(100_000)).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::NestingTooDeep { .. }));
    }

    /// A `UNION ALL` chain of `terms` minimal queries.
    fn union_chain(terms: usize) -> String {
        let mut sql = String::from("SELECT * FROM t");
        for _ in 1..terms {
            sql.push_str(" UNION ALL SELECT * FROM t");
        }
        sql
    }

    #[test]
    fn union_chain_past_the_limit_points_at_the_crossing_union() {
        // Each extra term is one level, so the chain may have limit + 1 terms.
        assert!(parse(&union_chain(MAX_NESTING_DEPTH + 1)).is_ok());
        let sql = union_chain(MAX_NESTING_DEPTH + 2);
        let err = parse(&sql).unwrap_err();
        assert_eq!(
            err.kind,
            ErrorKind::NestingTooDeep {
                limit: MAX_NESTING_DEPTH
            }
        );
        assert_eq!(&sql[err.span.start..err.span.end], "UNION");
        assert_eq!(err.span.start, sql.rfind("UNION").unwrap());
    }

    #[test]
    fn union_chains_and_parentheses_share_one_budget() {
        let extra = |terms: usize| " UNION ALL SELECT * FROM t".repeat(terms);
        // A chain inside parentheses: 10 levels of `(` plus 54 extra terms.
        let inside = |terms| format!("{}{}{}", "(".repeat(10), union_chain(terms), ")".repeat(10));
        assert!(parse(&inside(55)).is_ok());
        assert!(parse(&inside(56)).is_err());
        // A chain whose first term nests 10 deep: the extra terms push that
        // term further down, so they count on top of its nesting.
        let after = |terms| format!("{}{}", nested(10), extra(terms));
        assert!(parse(&after(54)).is_ok());
        assert!(parse(&after(55)).is_err());
        // So does a first term holding a chain: its `(` and 29 extra terms
        // are 30 levels, so 34 more fit and 35 do not.
        let nested_chain = |outer| format!("({}){}", union_chain(30), extra(outer));
        assert!(parse(&nested_chain(34)).is_ok());
        assert!(parse(&nested_chain(35)).is_err());
    }

    #[test]
    fn first_term_chains_cannot_stack_past_the_limit() {
        // Each level is a parenthesized first term and 8 extra terms. Every
        // chain fits on its own, but each level puts the ones inside it 9
        // levels further down the tree.
        let stack = |levels: usize| {
            let mut sql = String::from("SELECT * FROM t");
            for _ in 0..levels {
                sql = format!("({sql}){}", " UNION ALL SELECT * FROM t".repeat(8));
            }
            sql
        };
        assert!(parse(&stack(7)).is_ok(), "63 levels");
        let err = parse(&stack(8)).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::NestingTooDeep { .. }));
    }

    #[test]
    fn pathological_union_chain_is_rejected_without_overflow() {
        // A test thread's default stack in a debug build: without the
        // limit, dropping this left-deep tree overflows and aborts.
        let err = parse(&union_chain(100_000)).unwrap_err();
        assert_eq!(
            err.kind,
            ErrorKind::NestingTooDeep {
                limit: MAX_NESTING_DEPTH
            }
        );
    }

    #[test]
    fn trailing_input_is_rejected() {
        let err = parse("SELECT * FROM t SELECT").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::TrailingInput { .. }));
    }
}
