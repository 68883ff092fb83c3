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

/// How deeply a term may nest. The cap bounds both the parser's recursion
/// (re-entries of the full term grammar — parentheses, `Some(..)`,
/// `Seq::singleton(..)`, indexing, method arguments, the right operand of
/// `==>` — plus prefix operators) and the height of the syntax tree it
/// builds, to which every link of a `||`, `&&`, `+`/`-` or postfix chain
/// adds a level. Without a cap, a few kilobytes of `((((…` overflow the
/// stack of the thread parsing them, and a long flat chain such as
/// `x@ + x@ + …` builds a left-deep tree that later passes, and its own
/// drop, recurse through; real specifications nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// A parsed term and the height of its syntax tree (a leaf has height 0).
type Parsed = Result<(Term, usize), ParseError>;

/// Parses one Pearlite term from `src` (the whole input must be consumed).
pub fn parse_term(src: &str) -> Result<Term, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let (t, _) = p.implies()?;
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

    fn too_deep(&self) -> ParseError {
        self.error(format!("term nests deeper than {MAX_DEPTH} levels"))
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Parsed) -> Parsed {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let t = f(self);
        self.depth -= 1;
        t
    }

    /// The height of a node whose tallest child has height `h`, failing
    /// past [`MAX_DEPTH`]. Every node is checked before it is built, so no
    /// tree taller than the cap ever exists.
    fn above(&self, h: usize) -> Result<usize, ParseError> {
        if h >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(h + 1)
    }

    /// `a ==> b` — right-associative, loosest.
    fn implies(&mut self) -> Parsed {
        let (lhs, hl) = self.or()?;
        if self.eat(Kind::Implies) {
            let (rhs, hr) = self.nested(Self::implies)?;
            let h = self.above(hl.max(hr))?;
            return Ok((Term::Implies(Box::new(lhs), Box::new(rhs)), h));
        }
        Ok((lhs, hl))
    }

    // The `||`, `&&` and `+`/`-` chains build left-deep trees: each link is
    // one level more, checked as the loop builds it, so a chain stops at
    // the cap however long its input is.

    fn or(&mut self) -> Parsed {
        let (mut lhs, mut h) = self.and()?;
        while self.eat(Kind::OrOr) {
            let (rhs, hr) = self.and()?;
            h = self.above(h.max(hr))?;
            lhs = Term::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, h))
    }

    fn and(&mut self) -> Parsed {
        let (mut lhs, mut h) = self.cmp()?;
        while self.eat(Kind::AndAnd) {
            let (rhs, hr) = self.cmp()?;
            h = self.above(h.max(hr))?;
            lhs = Term::And(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, h))
    }

    /// Non-associative comparisons; `>` and `>=` normalise to `<` / `<=`.
    fn cmp(&mut self) -> Parsed {
        let (lhs, hl) = self.sum()?;
        let kind = match self.peek_kind() {
            Some(k @ (Kind::EqEq | Kind::Ne | Kind::Lt | Kind::Le | Kind::Gt | Kind::Ge)) => k,
            _ => return Ok((lhs, hl)),
        };
        self.bump();
        let (rhs, hr) = self.sum()?;
        let mut h = self.above(hl.max(hr))?;
        let (l, r) = (Box::new(lhs), Box::new(rhs));
        let t = match kind {
            Kind::EqEq => Term::Eq(l, r),
            Kind::Ne => {
                h = self.above(h)?;
                Term::Not(Box::new(Term::Eq(l, r)))
            }
            Kind::Lt => Term::Lt(l, r),
            Kind::Le => Term::Le(l, r),
            Kind::Gt => Term::Lt(r, l),
            Kind::Ge => Term::Le(r, l),
            _ => unreachable!(),
        };
        Ok((t, h))
    }

    fn sum(&mut self) -> Parsed {
        let (mut lhs, mut h) = self.unary()?;
        loop {
            let build = match self.peek_kind() {
                Some(Kind::Plus) => Term::Add,
                Some(Kind::Minus) => Term::Sub,
                _ => return Ok((lhs, h)),
            };
            self.bump();
            let (rhs, hr) = self.unary()?;
            h = self.above(h.max(hr))?;
            lhs = build(Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> Parsed {
        let wrap: fn(Box<Term>) -> Term = match self.peek_kind() {
            Some(Kind::Bang) => Term::Not,
            Some(Kind::Star) => Term::Cur,
            Some(Kind::Caret) => Term::Fin,
            _ => return self.postfix(),
        };
        self.bump();
        let (t, h) = self.nested(Self::unary)?;
        Ok((wrap(Box::new(t)), self.above(h)?))
    }

    /// Postfix operators: a chain too, each one a level over the term so
    /// far.
    fn postfix(&mut self) -> Parsed {
        let (mut t, mut h) = self.primary()?;
        loop {
            if self.eat(Kind::At) {
                h = self.above(h)?;
                t = Term::Model(Box::new(t));
            } else if self.eat(Kind::LBrack) {
                let (idx, hi) = self.nested(Self::implies)?;
                self.expect(Kind::RBrack, "`]` after index")?;
                h = self.above(h.max(hi))?;
                t = Term::SeqIndex(Box::new(t), Box::new(idx));
            } else if self.eat(Kind::Dot) {
                (t, h) = self.method(t, h)?;
            } else {
                return Ok((t, h));
            }
        }
    }

    /// A method call on `s` (of height `h`), after its `.`. A function of
    /// its own, like [`Parser::ident`], so that the frames on the path back
    /// into the grammar, one set per nesting level, stay small.
    fn method(&mut self, s: Term, h: usize) -> Parsed {
        let name = self.expect(Kind::Ident, "a method name after `.`")?;
        self.expect(Kind::LParen, "`(` after method name")?;
        let s = Box::new(s);
        match name.text.as_str() {
            "len" => {
                self.expect(Kind::RParen, "`)` (len takes no arguments)")?;
                Ok((Term::SeqLen(s), self.above(h)?))
            }
            "concat" | "push" | "permutation_of" => {
                let (arg, ha) = self.nested(Self::implies)?;
                self.expect(Kind::RParen, &format!("`)` after {} argument", name.text))?;
                let build = match name.text.as_str() {
                    "concat" => Term::SeqConcat,
                    "push" => Term::SeqPush,
                    _ => Term::PermutationOf,
                };
                Ok((build(s, Box::new(arg)), self.above(h.max(ha))?))
            }
            "subsequence" => {
                let (lo, hlo) = self.nested(Self::implies)?;
                self.expect(Kind::Comma, "`,` between subsequence bounds")?;
                let (hi, hhi) = self.nested(Self::implies)?;
                self.expect(Kind::RParen, "`)` after subsequence bounds")?;
                let h = self.above(h.max(hlo).max(hhi))?;
                Ok((Term::SeqSub(s, Box::new(lo), Box::new(hi)), h))
            }
            other => Err(ParseError {
                message: format!(
                    "unknown method `{other}` (expected len, concat, push, subsequence or permutation_of)"
                ),
                offset: name.offset,
            }),
        }
    }

    fn primary(&mut self) -> Parsed {
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
                Ok((Term::Int(value), 0))
            }
            Kind::LParen => {
                self.bump();
                let inner = self.nested(Self::implies)?;
                self.expect(Kind::RParen, "`)`")?;
                Ok(inner)
            }
            Kind::Ident => {
                self.bump();
                self.ident(tok)
            }
            _ => Err(self.error(format!("unexpected `{}`", tok.text))),
        }
    }

    /// A term starting with the identifier `tok`.
    fn ident(&mut self, tok: Token) -> Parsed {
        let leaf = |t: Term| Ok((t, 0));
        match tok.text.as_str() {
            "true" => leaf(Term::Bool(true)),
            "false" => leaf(Term::Bool(false)),
            "None" => leaf(Term::None_),
            "Some" => {
                self.expect(Kind::LParen, "`(` after Some")?;
                let (inner, h) = self.nested(Self::implies)?;
                self.expect(Kind::RParen, "`)` after Some argument")?;
                Ok((Term::Some(Box::new(inner)), self.above(h)?))
            }
            "Seq" => {
                self.expect(Kind::PathSep, "`::` after Seq")?;
                let item = self.expect(Kind::Ident, "EMPTY or singleton after Seq::")?;
                match item.text.as_str() {
                    "EMPTY" => leaf(Term::EmptySeq),
                    "singleton" => {
                        self.expect(Kind::LParen, "`(` after Seq::singleton")?;
                        let (inner, h) = self.nested(Self::implies)?;
                        self.expect(Kind::RParen, "`)` after singleton argument")?;
                        Ok((Term::SeqSingleton(Box::new(inner)), self.above(h)?))
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
                    leaf(Term::UsizeMax)
                } else {
                    Err(ParseError {
                        message: format!("unknown usize item `{}`", item.text),
                        offset: item.offset,
                    })
                }
            }
            _ => leaf(Term::Var(tok.text)),
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
        // Each link of a chain is one level of a left-deep tree: a chain of
        // `MAX_DEPTH` links parses, one more link does not, and a 100,000
        // link chain stops at the cap instead of building a tree that later
        // passes, and its own drop, recurse through.
        for (first, link) in [
            ("x", "@"),
            ("x@", " + x@"),
            ("1", " - 1"),
            ("true", " && true"),
            ("true", " || true"),
        ] {
            let chain = |n: usize| first.to_owned() + &link.repeat(n);
            // `x@` is itself one level high.
            let most = MAX_DEPTH - usize::from(first == "x@");
            assert!(parse_term(&chain(most)).is_ok(), "{link}");
            for n in [most + 1, 100_000] {
                let err = parse_term(&chain(n)).unwrap_err();
                assert!(err.message.contains("nests deeper"), "{link} x{n}: {err}");
            }
        }
        // The cap is on the height of the whole tree: a parenthesised
        // chain's levels count towards the chain it is the left operand of.
        let half = "true".to_owned() + &" && true".repeat(MAX_DEPTH / 2);
        let links = |n: usize| format!("({half}){}", " && true".repeat(n));
        assert!(parse_term(&links(MAX_DEPTH / 2)).is_ok());
        let err = parse_term(&links(MAX_DEPTH / 2 + 1)).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
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
