//! Seeded input generation: equal-work variants of the benchmark's
//! programs. The seed only renames things or picks among inputs of the
//! same cost, so two seeds give the server the same amount of work.

use two4one::Datum;
use two4one_langs::grammar;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A fixed-length identifier suffix (a letter, then five letters or
    /// digits). Every tag has the same length, so renamed programs have
    /// the same size as the original.
    pub fn tag(&mut self) -> String {
        const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let mut s = String::with_capacity(6);
        s.push((b'a' + self.below(26) as u8) as char);
        for _ in 0..5 {
            s.push(ALNUM[self.below(ALNUM.len() as u64) as usize] as char);
        }
        s
    }
}

/// α-renames every function of a MIXWELL or LAZY program
/// (`((fname (param ...) body) ...)`): each definition's name and every
/// `(call fname ...)` site get the suffix `-tag`. Parameters, operators
/// and quoted data are untouched, so the renamed program computes the
/// same function with the same amount of work.
pub fn rename_functions(program: &Datum, tag: &str) -> Datum {
    let defs = program.to_vec().unwrap_or_default();
    Datum::list(defs.iter().map(|def| {
        let parts = def.to_vec().unwrap_or_default();
        Datum::list(parts.iter().enumerate().map(|(i, d)| match i {
            0 => renamed(d, tag),
            2 => rename_calls(d, tag),
            _ => d.clone(),
        }))
    }))
}

fn renamed(d: &Datum, tag: &str) -> Datum {
    match d.as_sym() {
        Some(s) => Datum::sym(&format!("{}-{tag}", s.as_str())),
        None => d.clone(),
    }
}

fn rename_calls(e: &Datum, tag: &str) -> Datum {
    let Some(items) = e.to_vec() else {
        return e.clone();
    };
    let head = items.first().and_then(|h| h.as_sym()).map(|s| s.as_str());
    match head {
        Some("quote") => e.clone(),
        Some("call") => Datum::list(items.iter().enumerate().map(|(i, d)| match i {
            0 => d.clone(),
            1 => renamed(d, tag),
            _ => rename_calls(d, tag),
        })),
        _ => Datum::list(items.iter().map(|d| rename_calls(d, tag))),
    }
}

/// The grammar every grammar class reads: identifier tokens.
const GRAMMAR_RULES: [&str; 3] = ["ident", "letter", "digit"];

/// [`grammar::IDENT_GRAMMAR`] with its nonterminals renamed by `tag`. The
/// recognizer it compiles to has the same shape for every tag.
pub fn grammar_text(tag: &str) -> String {
    rename_tokens(grammar::IDENT_GRAMMAR, &GRAMMAR_RULES, tag)
}

/// Renames whole tokens of S-expression text (tokens end at whitespace
/// and parentheses).
fn rename_tokens(text: &str, names: &[&str], tag: &str) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    let mut token = String::new();
    let flush = |token: &mut String, out: &mut String| {
        if names.contains(&token.as_str()) {
            out.push_str(&format!("{token}-{tag}"));
        } else {
            out.push_str(token);
        }
        token.clear();
    };
    for c in text.chars() {
        if c.is_whitespace() || c == '(' || c == ')' {
            flush(&mut token, &mut out);
            out.push(c);
        } else {
            token.push(c);
        }
    }
    flush(&mut token, &mut out);
    out
}

/// A word of `len` characters that the identifier grammar accepts: a
/// letter, then letters, digits and underscores.
pub fn ident_word(rng: &mut Rng, len: usize) -> String {
    const FIRST: &[u8] = b"abcdefgxyz";
    const REST: &[u8] = b"abcdefgxyz0123456789_";
    let mut s = String::with_capacity(len);
    s.push(FIRST[rng.below(FIRST.len() as u64) as usize] as char);
    while s.len() < len {
        s.push(REST[rng.below(REST.len() as u64) as usize] as char);
    }
    s
}

/// `power` under a seeded name: `(power-tag x n)`.
pub fn power_source(tag: &str) -> (String, String) {
    let entry = format!("power-{tag}");
    let src = format!("(define ({entry} x n) (if (= n 0) 1 (* x ({entry} x (- n 1)))))");
    (src, entry)
}

/// The bystander program of warm-hit's writes: no read ever touches it.
pub fn bystander_source(tag: &str) -> (String, String) {
    let entry = format!("bystander-{tag}");
    let src = format!("(define ({entry} a b) (if (= a 0) b ({entry} (- a 1) (+ b 1))))");
    (src, entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_keeps_size_and_renames_calls() {
        let p = two4one::reader::read_one("((main (n) (call f n (quote call))) (f (a b) (+ a b)))")
            .unwrap();
        let r = rename_functions(&p, "abc123");
        assert_eq!(
            r.to_string(),
            "((main-abc123 (n) (call f-abc123 n 'call)) (f-abc123 (a b) (+ a b)))"
        );
        let mut rng = Rng::new(7);
        assert_eq!(rng.tag().len(), 6);
        assert!(grammar::parse(&grammar_text("q1w2e3")).is_ok());
    }
}
