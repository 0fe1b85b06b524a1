//! One tokenizer, three consumers: over seeded statements ranging from
//! grammar-shaped to token soup, `scan_statement`'s literal spans must sit
//! exactly on the literal tokens `Lexer::tokenize` produces, both `<>`
//! spellings must share a fingerprint, and a bound template must equal the
//! cold parse.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use resildb_sql::{
    bind_statement, parse_span_literal, parse_statement, parse_template, scan_statement, Lexer,
    Literal, Token,
};

/// splitmix64: the test's own generator, so a seed names one soup forever.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// Pieces of every kind the tokenizer distinguishes (each list split on
/// spaces; strings and quoted identifiers with inner spaces come whole).
const WORDS: &str =
    "SELECT insert Update FROM wHeRe and NOT in like IS null VALUES set by LIMIT a t_1 v$x _u";
const NUMBERS: &str = "0 42 007 1.5 1e5 2.5E-2 1.a -5 999999999999999999 9999999999999999999";
const OPS: &str = "!= <> <= >= || < > = + - * / % , ( ) . ; ! | ? ^";
const QUOTED: &[&str] = &["''", "'it''s'", "'naïve λ'", "'a -- b'", "\"Mixed Case\""];
/// The first five separate two tokens; the rest fuse, or swallow, them.
const TRIVIA: &[&str] = &[
    " ", "  ", "\n", " -- c\n", "/* b */", "", "/* open", " -- tail",
];

/// A grammar-shaped statement (`#` a literal, `@` a comparison) whose words
/// are, at a per-statement noise rate, swapped for arbitrary pieces and
/// glued with arbitrary trivia — including none, so neighbours fuse. No
/// noise mostly parses; heavy noise is token soup.
fn statement(rng: &mut Rng) -> String {
    const SHAPES: &[&str] = &[
        "SELECT x , y || # FROM t WHERE x @ # AND y BETWEEN # AND 9 ORDER BY x LIMIT 5",
        "INSERT INTO t ( x , y ) VALUES ( # , # ) , ( # , 1.5 )",
        "UPDATE t SET x = x + # , y = # WHERE \"q z\" @ #",
        "DELETE FROM t WHERE x IN ( # , # ) OR y LIKE #",
        // Binary minus after a column, a literal, `)`, a quoted identifier
        // and a keyword; signed numbers after `=`, `(`, `,` and `-`; a
        // prefix `-` the glue may set apart from its number, or from a
        // parenthesised one.
        "SELECT x - # , 7 - # , ( x ) - # , \"q z\" - # , NULL - # FROM t WHERE x = -# AND y IN ( -# , -# ) AND x - -# > - #",
        "UPDATE t SET x = x - # , y = - # , z = - ( # ) WHERE \"q z\" = -# OR ( y ) - # < 0",
    ];
    fn any<'a>(rng: &mut Rng, lists: &[&'a str]) -> &'a str {
        let all: Vec<&str> = lists
            .iter()
            .flat_map(|l| l.split(' '))
            .chain(QUOTED.iter().copied())
            .collect();
        all[rng.below(all.len())]
    }
    let noise = [0, 0, 2, 12][rng.below(4)];
    let mut s = String::new();
    for word in rng.pick(SHAPES).split(' ') {
        let piece = match word {
            _ if rng.below(16) < noise => any(rng, &[WORDS, NUMBERS, OPS]),
            "#" => any(rng, &[NUMBERS]),
            "-#" => {
                let number = any(rng, &[NUMBERS]);
                s.push('-');
                number
            }
            "@" => any(rng, &["= != <> < <= > >="]),
            word => word,
        };
        if rng.below(3) == 0 && piece.bytes().all(|b| b.is_ascii_alphabetic()) {
            s.push_str(&piece.to_ascii_lowercase());
        } else {
            s.push_str(piece);
        }
        s.push_str(if noise == 0 {
            rng.pick(&TRIVIA[..5])
        } else {
            rng.pick(TRIVIA)
        });
    }
    s
}

fn check(s: &str) -> Result<(), TestCaseError> {
    let scan = scan_statement(s);
    // `!=` and `<>` are one token: respelling never moves the fingerprint
    // (no generated quoted identifier contains either).
    for respelled in [s.replace("!=", "<>"), s.replace("<>", "!=")] {
        prop_assert_eq!(
            scan_statement(&respelled).map(|r| r.fingerprint),
            scan.as_ref().map(|r| r.fingerprint),
            "respelling {:?} as {:?}",
            s,
            respelled
        );
    }
    let Some(scan) = scan else {
        return Ok(());
    };
    let tokens = Lexer::new(s).tokenize();
    prop_assert!(tokens.is_ok(), "scanned but does not lex: {:?}", s);
    let tokens = tokens.unwrap();
    let mut values = Vec::new();
    for span in &scan.spans {
        let value = parse_span_literal(s, span);
        let at = tokens.iter().position(|(_, off)| *off == span.start);
        // A signed span is a `-` and the number directly after it.
        let token = match at.map(|i| (&tokens[i], tokens.get(i + 1))) {
            Some(((Token::Minus, _), Some((number, off)))) if *off == span.start + 1 => {
                match number {
                    Token::Int(v) => Some(Token::Int(-v)),
                    Token::Float(v) => Some(Token::Float(-v)),
                    _ => None,
                }
            }
            Some(((token, _), _)) => Some(token.clone()),
            None => None,
        };
        let agree = match (&token, &value) {
            (Some(Token::Int(t)), Some(Literal::Int(v))) => t == v,
            (Some(Token::Float(t)), Some(Literal::Float(v))) => t.to_bits() == v.to_bits(),
            (Some(Token::Str(t)), Some(Literal::Str(v))) => t == v,
            _ => false,
        };
        prop_assert!(
            agree,
            "span {:?} of {:?}: {:?} vs {:?}",
            span,
            s,
            token,
            value
        );
        values.extend(value);
    }
    if let Ok(cold) = parse_statement(s) {
        match parse_template(s, &scan) {
            Some(tmpl) => prop_assert_eq!(bind_statement(&tmpl, &values), Ok(cold), "for {:?}", s),
            // Refused only where a `-` (through any parentheses) negates a
            // placeholder: the guard that keeps `-(5)` from binding as
            // `Neg(5)` where the cold parse folds it to `-5`.
            None => prop_assert!(
                scan.spans.iter().any(|span| negated(&tokens, span.start)),
                "parses cold but not as a template: {:?}",
                s
            ),
        }
    }
    Ok(())
}

/// Whether the token at `offset` directly follows a `-`, skipping `(`s.
fn negated(tokens: &[(Token, usize)], offset: usize) -> bool {
    let Some(at) = tokens.iter().position(|(_, off)| *off == offset) else {
        return false;
    };
    let mut before = tokens[..at].iter().rev().map(|(t, _)| t);
    before
        .find(|t| **t != Token::LParen)
        .is_some_and(|t| *t == Token::Minus)
}

proptest! {
    #[test]
    fn spans_tokens_and_templates_agree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for _ in 0..16 {
            check(&statement(&mut rng))?;
        }
    }
}

/// The generator reaches every outcome the property distinguishes;
/// otherwise the property above could pass vacuously.
#[test]
fn generator_covers_scanned_refused_and_parsed() {
    let mut rng = Rng(1);
    let (mut scanned, mut refused, mut parsed) = (0, 0, 0);
    // Parsed statements with a masked literal under a `-`: templated (a
    // binary minus's operand or a signed number), or refused by the guard.
    let (mut minus_templated, mut guarded) = (0, 0);
    for _ in 0..800 {
        let s = statement(&mut rng);
        let Some(scan) = scan_statement(&s) else {
            refused += 1;
            continue;
        };
        scanned += 1;
        if parse_statement(&s).is_ok() {
            parsed += 1;
            let tokens = Lexer::new(&s).tokenize().unwrap();
            let under_minus = scan
                .spans
                .iter()
                .any(|span| negated(&tokens, span.start) || s[span.start..].starts_with('-'));
            match parse_template(&s, &scan) {
                Some(_) if under_minus => minus_templated += 1,
                None => guarded += 1,
                Some(_) => {}
            }
        }
    }
    assert!(
        scanned > 100 && refused > 100 && parsed > 100 && minus_templated > 25 && guarded > 5,
        "{scanned} {refused} {parsed} {minus_templated} {guarded}"
    );
}
