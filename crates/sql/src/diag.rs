//! Errors and caret diagnostics.
//!
//! Every lexer, parser, and rewrite-pipeline error carries the byte span of
//! the offending source text; [`SqlError::render`] turns it into a
//! caret-underlined snippet. The rendered format is pinned by unit tests —
//! treat it as a stable output contract.

use crate::ast::Span;
use std::fmt;

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The lexer hit a character outside the grammar's alphabet.
    UnexpectedChar(char),
    /// An integer literal does not fit in 64 bits.
    NumberTooLarge,
    /// The parser found the wrong token.
    UnexpectedToken {
        /// What the grammar allowed here.
        expected: String,
        /// What was found, as written.
        found: String,
    },
    /// The input ended mid-production.
    UnexpectedEof {
        /// What the grammar allowed here.
        expected: String,
    },
    /// Parenthesized queries and extra `UNION ALL` terms nest deeper than
    /// the parser accepts; the span points at the `(` or `UNION` that
    /// crossed the limit.
    NestingTooDeep {
        /// The deepest nesting accepted
        /// ([`MAX_NESTING_DEPTH`](crate::parser::MAX_NESTING_DEPTH)).
        limit: usize,
    },
    /// A complete query was parsed but input remains.
    TrailingInput {
        /// The first leftover token, as written.
        found: String,
    },
    /// A FROM item names a table the catalog does not have.
    UnknownTable {
        /// The name as written.
        name: String,
    },
    /// A column reference does not resolve against its base table.
    UnknownColumn {
        /// The resolving base table.
        table: String,
        /// The column name as written.
        column: String,
    },
    /// A `table.` qualifier names a different table than the one resolving
    /// this reference.
    QualifierMismatch {
        /// The qualifier as written.
        qualifier: String,
        /// The base table that resolves columns in this position.
        expected: String,
    },
    /// The number of bound values does not match the number of `?`
    /// placeholders.
    ParamArity {
        /// Placeholders in the query.
        placeholders: usize,
        /// Values supplied.
        bound: usize,
    },
    /// Lowering found syntax the rewrite phases should have eliminated —
    /// the pipeline was invoked out of order.
    Residual(&'static str),
    /// A custom rule order is not a permutation of the phase's rules.
    InvalidRuleOrder {
        /// The phase whose order was rejected.
        phase: &'static str,
    },
}

/// A front-end error: a kind plus the source span it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// What went wrong.
    pub kind: ErrorKind,
    /// Byte span of the offending source text.
    pub span: Span,
}

impl SqlError {
    /// Creates an error.
    pub fn new(kind: ErrorKind, span: Span) -> Self {
        Self { kind, span }
    }

    /// Renders the error as a caret-underlined snippet of `source`:
    ///
    /// ```text
    /// error: unknown table `evnts`
    ///   |
    /// 1 | SELECT * FROM evnts
    ///   |               ^^^^^
    /// ```
    pub fn render(&self, source: &str) -> String {
        let start = self.span.start.min(source.len());
        // Locate the line containing the span start.
        let line_start = source[..start].rfind('\n').map_or(0, |i| i + 1);
        let line_end = source[line_start..]
            .find('\n')
            .map_or(source.len(), |i| line_start + i);
        let line_no = source[..line_start].matches('\n').count() + 1;
        let line = &source[line_start..line_end];
        let col = start - line_start;
        // Caret run: the span clipped to this line, at least one caret
        // (EOF errors point one past the end).
        let carets = (self.span.end.min(line_end).saturating_sub(start)).max(1);
        let gutter = line_no.to_string();
        let pad = " ".repeat(gutter.len());
        let caret = format!("{}{}", " ".repeat(col), "^".repeat(carets));
        format!("error: {self}\n{pad} |\n{gutter} | {line}\n{pad} | {caret}")
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            ErrorKind::NumberTooLarge => write!(f, "integer literal does not fit in 64 bits"),
            ErrorKind::UnexpectedToken { expected, found } => {
                write!(f, "expected {expected}, found `{found}`")
            }
            ErrorKind::UnexpectedEof { expected } => {
                write!(f, "expected {expected}, found end of input")
            }
            ErrorKind::NestingTooDeep { limit } => {
                write!(f, "queries nest more than {limit} levels deep")
            }
            ErrorKind::TrailingInput { found } => {
                write!(f, "unexpected `{found}` after the end of the query")
            }
            ErrorKind::UnknownTable { name } => write!(f, "unknown table `{name}`"),
            ErrorKind::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            ErrorKind::QualifierMismatch {
                qualifier,
                expected,
            } => write!(
                f,
                "qualifier `{qualifier}` does not match the base table `{expected}` \
                 resolving this position"
            ),
            ErrorKind::ParamArity {
                placeholders,
                bound,
            } => write!(
                f,
                "query has {placeholders} parameter placeholder(s) but {bound} value(s) \
                 were bound"
            ),
            ErrorKind::Residual(what) => write!(
                f,
                "lowering found residual {what}; run the rewrite phases first"
            ),
            ErrorKind::InvalidRuleOrder { phase } => write!(
                f,
                "rule order for the {phase} phase is not a permutation of its rules"
            ),
        }
    }
}

impl std::error::Error for SqlError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SqlError>;
