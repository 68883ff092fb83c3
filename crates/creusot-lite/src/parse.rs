//! A parser for textual Pearlite terms.
//!
//! The daemon protocol (`gillian serve`) receives `requires`/`ensures`
//! clauses as strings; this module turns them into [`Term`]s covering the
//! same fragment the builders in [`crate::pearlite`] produce:
//!
//! ```text
//! result@ == x@ + 2
//! Seq::singleton(e@).concat((*self)@) == (^self)@
//! (*self)@.len() < usize::MAX
//! s@.permutation_of(t@) && !(s@ == Seq::EMPTY)
//! ```
//!
//! Precedence, loosest to tightest: `==>` (right-associative), `||`, `&&`,
//! comparisons (non-associative), `+`/`-`, prefix `!` `*` `^`, postfix `@`,
//! `.len()`, `.concat(t)`, `.push(t)`, `.subsequence(lo, hi)`,
//! `.permutation_of(t)` and indexing `s[i]`. As in Rust, the prefix
//! operators bind looser than the postfix ones, so the current model of a
//! mutable reference is written `(*self)@` — exactly the Pearlite surface
//! syntax.

use crate::pearlite::Term;
use std::fmt;

/// A parse failure: what was expected and where (byte offset into the input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// How deeply the parser may recurse: re-entries of the full term grammar
/// (parentheses, `Some(..)`, `Seq::singleton(..)`, indexing, method
/// arguments, the right operand of `==>`) plus prefix operators. Without a
/// cap, a few kilobytes of `((((…` overflow the stack of the thread parsing
/// them; real specifications nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// Parses one Pearlite term from `src` (the whole input must be consumed).
pub fn parse_term(src: &str) -> Result<Term, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let t = p.implies()?;
    match p.peek() {
        None => Ok(t),
        Some(tok) => Err(p.error(format!("unexpected trailing `{}`", tok.text))),
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Int,
    Ident,
    LParen,
    RParen,
    LBrack,
    RBrack,
    Comma,
    Dot,
    At,
    Star,
    Caret,
    Bang,
    Plus,
    Minus,
    EqEq,
    Ne,
    Le,
    Lt,
    Ge,
    Gt,
    AndAnd,
    OrOr,
    Implies,
    PathSep,
}

#[derive(Clone, Debug)]
struct Token {
    kind: Kind,
    text: String,
    offset: usize,
}

fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let push = |out: &mut Vec<Token>, kind, text: &str, offset| {
        out.push(Token {
            kind,
            text: text.to_owned(),
            offset,
        });
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Multi-character operators first (longest match).
        let rest = &src[i..];
        let two_plus: &[(&str, Kind)] = &[
            ("==>", Kind::Implies),
            ("==", Kind::EqEq),
            ("!=", Kind::Ne),
            ("<=", Kind::Le),
            (">=", Kind::Ge),
            ("&&", Kind::AndAnd),
            ("||", Kind::OrOr),
            ("::", Kind::PathSep),
        ];
        if let Some((text, kind)) = two_plus.iter().find(|(t, _)| rest.starts_with(t)) {
            push(&mut out, *kind, text, i);
            i += text.len();
            continue;
        }
        let single = match c {
            '(' => Some(Kind::LParen),
            ')' => Some(Kind::RParen),
            '[' => Some(Kind::LBrack),
            ']' => Some(Kind::RBrack),
            ',' => Some(Kind::Comma),
            '.' => Some(Kind::Dot),
            '@' => Some(Kind::At),
            '*' => Some(Kind::Star),
            '^' => Some(Kind::Caret),
            '!' => Some(Kind::Bang),
            '+' => Some(Kind::Plus),
            '-' => Some(Kind::Minus),
            '<' => Some(Kind::Lt),
            '>' => Some(Kind::Gt),
            _ => None,
        };
        if let Some(kind) = single {
            push(&mut out, kind, &src[i..i + 1], i);
            i += 1;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            push(&mut out, Kind::Int, &src[start..i], start);
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            push(&mut out, Kind::Ident, &src[start..i], start);
            continue;
        }
        return Err(ParseError {
            message: format!("unexpected character `{c}`"),
            offset: i,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nested re-entries currently open (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_kind(&self) -> Option<Kind> {
        self.peek().map(|t| t.kind)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        self.pos += 1;
        t
    }

    fn eat(&mut self, kind: Kind) -> bool {
        if self.peek_kind() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: Kind, what: &str) -> Result<Token, ParseError> {
        if self.peek_kind() == Some(kind) {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn error(&self, message: String) -> ParseError {
        let offset = self.peek().map(|t| t.offset).unwrap_or_else(|| {
            self.tokens
                .last()
                .map(|t| t.offset + t.text.len())
                .unwrap_or(0)
        });
        ParseError { message, offset }
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Term, ParseError>) -> Result<Term, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("term nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let t = f(self);
        self.depth -= 1;
        t
    }

    /// `a ==> b` — right-associative, loosest.
    fn implies(&mut self) -> Result<Term, ParseError> {
        let lhs = self.or()?;
        if self.eat(Kind::Implies) {
            let rhs = self.nested(Self::implies)?;
            return Ok(Term::Implies(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn or(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.and()?;
        while self.eat(Kind::OrOr) {
            let rhs = self.and()?;
            lhs = Term::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.cmp()?;
        while self.eat(Kind::AndAnd) {
            let rhs = self.cmp()?;
            lhs = Term::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// Non-associative comparisons; `>` and `>=` normalise to `<` / `<=`.
    fn cmp(&mut self) -> Result<Term, ParseError> {
        let lhs = self.sum()?;
        let kind = match self.peek_kind() {
            Some(k @ (Kind::EqEq | Kind::Ne | Kind::Lt | Kind::Le | Kind::Gt | Kind::Ge)) => k,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.sum()?;
        let (l, r) = (Box::new(lhs), Box::new(rhs));
        Ok(match kind {
            Kind::EqEq => Term::Eq(l, r),
            Kind::Ne => Term::Not(Box::new(Term::Eq(l, r))),
            Kind::Lt => Term::Lt(l, r),
            Kind::Le => Term::Le(l, r),
            Kind::Gt => Term::Lt(r, l),
            Kind::Ge => Term::Le(r, l),
            _ => unreachable!(),
        })
    }

    fn sum(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let kind = match self.peek_kind() {
                Some(k @ (Kind::Plus | Kind::Minus)) => k,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = match kind {
                Kind::Plus => Term::Add(Box::new(lhs), Box::new(rhs)),
                _ => Term::Sub(Box::new(lhs), Box::new(rhs)),
            };
        }
    }

    fn unary(&mut self) -> Result<Term, ParseError> {
        if self.eat(Kind::Bang) {
            return Ok(Term::Not(Box::new(self.nested(Self::unary)?)));
        }
        if self.eat(Kind::Star) {
            return Ok(Term::Cur(Box::new(self.nested(Self::unary)?)));
        }
        if self.eat(Kind::Caret) {
            return Ok(Term::Fin(Box::new(self.nested(Self::unary)?)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Term, ParseError> {
        let mut t = self.primary()?;
        loop {
            if self.eat(Kind::At) {
                t = Term::Model(Box::new(t));
                continue;
            }
            if self.eat(Kind::LBrack) {
                let idx = self.nested(Self::implies)?;
                self.expect(Kind::RBrack, "`]` after index")?;
                t = Term::SeqIndex(Box::new(t), Box::new(idx));
                continue;
            }
            if self.eat(Kind::Dot) {
                let name = self.expect(Kind::Ident, "a method name after `.`")?;
                self.expect(Kind::LParen, "`(` after method name")?;
                t = match name.text.as_str() {
                    "len" => {
                        self.expect(Kind::RParen, "`)` (len takes no arguments)")?;
                        Term::SeqLen(Box::new(t))
                    }
                    "concat" => {
                        let arg = self.nested(Self::implies)?;
                        self.expect(Kind::RParen, "`)` after concat argument")?;
                        Term::SeqConcat(Box::new(t), Box::new(arg))
                    }
                    "push" => {
                        let arg = self.nested(Self::implies)?;
                        self.expect(Kind::RParen, "`)` after push argument")?;
                        Term::SeqPush(Box::new(t), Box::new(arg))
                    }
                    "subsequence" => {
                        let lo = self.nested(Self::implies)?;
                        self.expect(Kind::Comma, "`,` between subsequence bounds")?;
                        let hi = self.nested(Self::implies)?;
                        self.expect(Kind::RParen, "`)` after subsequence bounds")?;
                        Term::SeqSub(Box::new(t), Box::new(lo), Box::new(hi))
                    }
                    "permutation_of" => {
                        let arg = self.nested(Self::implies)?;
                        self.expect(Kind::RParen, "`)` after permutation_of argument")?;
                        Term::PermutationOf(Box::new(t), Box::new(arg))
                    }
                    other => {
                        return Err(ParseError {
                            message: format!(
                                "unknown method `{other}` (expected len, concat, push, subsequence or permutation_of)"
                            ),
                            offset: name.offset,
                        })
                    }
                };
                continue;
            }
            return Ok(t);
        }
    }

    fn primary(&mut self) -> Result<Term, ParseError> {
        let tok = match self.peek() {
            Some(t) => t.clone(),
            None => return Err(self.error("expected a term".to_owned())),
        };
        match tok.kind {
            Kind::Int => {
                self.bump();
                let value: i128 = tok.text.parse().map_err(|_| ParseError {
                    message: format!("integer literal `{}` out of range", tok.text),
                    offset: tok.offset,
                })?;
                Ok(Term::Int(value))
            }
            Kind::LParen => {
                self.bump();
                let inner = self.nested(Self::implies)?;
                self.expect(Kind::RParen, "`)`")?;
                Ok(inner)
            }
            Kind::Ident => {
                self.bump();
                match tok.text.as_str() {
                    "true" => Ok(Term::Bool(true)),
                    "false" => Ok(Term::Bool(false)),
                    "None" => Ok(Term::None_),
                    "Some" => {
                        self.expect(Kind::LParen, "`(` after Some")?;
                        let inner = self.nested(Self::implies)?;
                        self.expect(Kind::RParen, "`)` after Some argument")?;
                        Ok(Term::Some(Box::new(inner)))
                    }
                    "Seq" => {
                        self.expect(Kind::PathSep, "`::` after Seq")?;
                        let item = self.expect(Kind::Ident, "EMPTY or singleton after Seq::")?;
                        match item.text.as_str() {
                            "EMPTY" => Ok(Term::EmptySeq),
                            "singleton" => {
                                self.expect(Kind::LParen, "`(` after Seq::singleton")?;
                                let inner = self.nested(Self::implies)?;
                                self.expect(Kind::RParen, "`)` after singleton argument")?;
                                Ok(Term::SeqSingleton(Box::new(inner)))
                            }
                            other => Err(ParseError {
                                message: format!(
                                    "unknown Seq item `{other}` (expected EMPTY or singleton)"
                                ),
                                offset: item.offset,
                            }),
                        }
                    }
                    "usize" => {
                        self.expect(Kind::PathSep, "`::` after usize")?;
                        let item = self.expect(Kind::Ident, "MAX after usize::")?;
                        if item.text == "MAX" {
                            Ok(Term::UsizeMax)
                        } else {
                            Err(ParseError {
                                message: format!("unknown usize item `{}`", item.text),
                                offset: item.offset,
                            })
                        }
                    }
                    _ => Ok(Term::Var(tok.text)),
                }
            }
            _ => Err(self.error(format!("unexpected `{}`", tok.text))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_models() {
        assert_eq!(
            parse_term("result@ == x@ + 2").unwrap(),
            Term::eq(
                Term::model("result"),
                Term::Add(Box::new(Term::model("x")), Box::new(Term::Int(2))),
            )
        );
    }

    #[test]
    fn cur_and_fin_models_need_parens_like_pearlite() {
        assert_eq!(
            parse_term("(^self)@ == (*self)@ + 2").unwrap(),
            Term::eq(
                Term::fin_model("self"),
                Term::Add(Box::new(Term::cur_model("self")), Box::new(Term::Int(2))),
            )
        );
    }

    #[test]
    fn push_front_postcondition_round_trips() {
        // The Fig. 7 shape, exactly as the builders produce it.
        assert_eq!(
            parse_term("Seq::singleton(e@).concat((*self)@) == (^self)@").unwrap(),
            Term::eq(
                Term::concat(Term::singleton(Term::model("e")), Term::cur_model("self")),
                Term::fin_model("self"),
            )
        );
    }

    #[test]
    fn sequence_vocabulary() {
        assert_eq!(
            parse_term("s@.len() < usize::MAX").unwrap(),
            Term::lt(Term::len(Term::model("s")), Term::UsizeMax)
        );
        assert_eq!(
            parse_term("s@[0] == 1 && s@.subsequence(0, 1).permutation_of(Seq::EMPTY.push(1))")
                .unwrap(),
            Term::And(
                Box::new(Term::eq(
                    Term::SeqIndex(Box::new(Term::model("s")), Box::new(Term::Int(0))),
                    Term::Int(1),
                )),
                Box::new(Term::permutation_of(
                    Term::SeqSub(
                        Box::new(Term::model("s")),
                        Box::new(Term::Int(0)),
                        Box::new(Term::Int(1)),
                    ),
                    Term::SeqPush(Box::new(Term::EmptySeq), Box::new(Term::Int(1))),
                )),
            )
        );
    }

    #[test]
    fn connective_precedence_and_associativity() {
        // `a ==> b ==> c` is `a ==> (b ==> c)`; `&&` binds tighter than `||`,
        // comparisons tighter than both.
        assert_eq!(
            parse_term("x@ == 1 ==> y@ == 2 ==> true").unwrap(),
            Term::Implies(
                Box::new(Term::eq(Term::model("x"), Term::Int(1))),
                Box::new(Term::Implies(
                    Box::new(Term::eq(Term::model("y"), Term::Int(2))),
                    Box::new(Term::Bool(true)),
                )),
            )
        );
        assert_eq!(
            parse_term("true || false && true").unwrap(),
            Term::Or(
                Box::new(Term::Bool(true)),
                Box::new(Term::And(
                    Box::new(Term::Bool(false)),
                    Box::new(Term::Bool(true)),
                )),
            )
        );
    }

    #[test]
    fn negation_comparisons_and_options() {
        assert_eq!(
            parse_term("!(x@ >= 3)").unwrap(),
            Term::Not(Box::new(Term::Le(
                Box::new(Term::Int(3)),
                Box::new(Term::model("x")),
            )))
        );
        assert_eq!(
            parse_term("result@ != None").unwrap(),
            Term::Not(Box::new(Term::eq(Term::model("result"), Term::None_)))
        );
        assert_eq!(
            parse_term("result@ == Some(x@ - 1)").unwrap(),
            Term::eq(
                Term::model("result"),
                Term::Some(Box::new(Term::Sub(
                    Box::new(Term::model("x")),
                    Box::new(Term::Int(1)),
                ))),
            )
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let parens = |n: usize| "(".repeat(n) + "x@" + &")".repeat(n);
        assert_eq!(parse_term(&parens(MAX_DEPTH)).unwrap(), Term::model("x"));
        // The error points just past the parenthesis one level too deep.
        let err = parse_term(&parens(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH + 1, "{err}");
        assert!(err.message.contains("nests deeper"), "{err}");
        // Every way back into the grammar counts, and far past the cap the
        // parser stops at the cap instead of recursing through the input.
        for (open, close) in [
            ("(", ")"),
            ("Some(", ")"),
            ("Seq::singleton(", ")"),
            ("s@[", "]"),
            ("s@.concat(", ")"),
            ("s@.push(", ")"),
            ("s@.permutation_of(", ")"),
            ("s@.subsequence(0, ", ")"),
            ("true ==> ", ""),
            ("!", ""),
            ("*", ""),
            ("^", ""),
        ] {
            let src = open.repeat(20_000) + "x@" + &close.repeat(20_000);
            let err = parse_term(&src).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{open}: {err}");
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_term("x@ ==").unwrap_err();
        assert!(err.message.contains("expected a term"), "{err}");
        let err = parse_term("x@ # 1").unwrap_err();
        assert_eq!(err.offset, 3);
        let err = parse_term("s@.reverse()").unwrap_err();
        assert!(err.message.contains("unknown method"), "{err}");
        let err = parse_term("x@ == 1 extra").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }
}
