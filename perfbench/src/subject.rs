//! The programs the benchmark serves, the keys it reads, and the
//! correctness oracle: every delivered image must compute what the
//! reference interpreter computes on the source program,
//! ⟦spec(p, s)⟧(d) = ⟦p⟧(s, d).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use two4one::{
    cs, decode_image, interpret, run_image, CallPolicy, Datum, Division, GenExt, Image, Pgg,
    RunOutcome, BT,
};
use two4one_langs as langs;
use two4one_langs::grammar;
use two4one_net::wire;

/// A program as the server builds it: source, entry, division, policies.
#[derive(Clone, Debug)]
pub struct Program {
    /// Unfold/memoize policies: none for plain Scheme (as `REQ_REGISTER`
    /// registers it), the interpreter's own for MIXWELL, LAZY and grammars
    /// (as `REQ_GRAMMAR` registers those).
    policies: Vec<(&'static str, CallPolicy)>,
    pub source: String,
    pub entry: String,
    pub division: Vec<BT>,
    /// The grammar text, for grammar programs.
    pub grammar: Option<String>,
}

impl Program {
    pub fn plain(source: String, entry: String, division: &str) -> Program {
        let division = division
            .chars()
            .map(|c| if c == 'S' { BT::Static } else { BT::Dynamic })
            .collect();
        Program {
            policies: Vec::new(),
            source,
            entry,
            division,
            grammar: None,
        }
    }

    pub fn mixwell() -> Program {
        Program {
            policies: langs::mixwell_policies(),
            source: langs::MIXWELL_INTERP.to_string(),
            entry: "mixwell-run".to_string(),
            division: vec![BT::Static, BT::Dynamic],
            grammar: None,
        }
    }

    pub fn lazy() -> Program {
        Program {
            policies: langs::lazy_policies(),
            source: langs::LAZY_INTERP.to_string(),
            entry: "lazy-run".to_string(),
            division: vec![BT::Static, BT::Dynamic],
            grammar: None,
        }
    }

    /// The matcher workload for `text`, built exactly as the server's
    /// grammar registration builds it.
    pub fn grammar(text: &str) -> Result<Program, String> {
        let g = grammar::parse(text).map_err(|e| format!("bad grammar: {e}"))?;
        Ok(Program {
            policies: grammar::grammar_policies(),
            source: grammar::workload_source(&g),
            entry: grammar::WORKLOAD_ENTRY.to_string(),
            division: vec![BT::Dynamic],
            grammar: Some(text.to_string()),
        })
    }

    fn pgg(&self) -> Pgg {
        self.policies
            .iter()
            .fold(Pgg::new(), |p, (name, pol)| p.policy(name, *pol))
    }

    pub fn parse(&self) -> Result<cs::Program, String> {
        self.pgg().parse(&self.source).map_err(|e| e.to_string())
    }

    pub fn cogen(&self, parsed: &cs::Program) -> Result<GenExt, String> {
        self.pgg()
            .cogen(parsed, &self.entry, &Division::new(self.division.clone()))
            .map_err(|e| e.to_string())
    }

    /// Front end plus binding-time analysis: the generating extension.
    pub fn build(&self) -> Result<GenExt, String> {
        self.cogen(&self.parse()?)
    }

    /// The frame that registers this program over the wire.
    pub fn register_frame(&self, name: &str) -> Vec<u8> {
        match &self.grammar {
            Some(text) => wire::encode_frame(
                wire::REQ_GRAMMAR,
                &wire::GrammarWireRequest {
                    token: String::new(),
                    name: name.to_string(),
                    text: text.clone(),
                }
                .encode(),
            ),
            None => wire::encode_frame(
                wire::REQ_REGISTER,
                &wire::RegisterWireRequest {
                    token: String::new(),
                    name: name.to_string(),
                    source: self.source.clone(),
                    entry: self.entry.clone(),
                    division: self
                        .division
                        .iter()
                        .map(|bt| if *bt == BT::Static { 'S' } else { 'D' })
                        .collect(),
                }
                .encode(),
            ),
        }
    }
}

/// One read target: a registered program, static arguments, and the
/// dynamic input its delivered image is run on.
#[derive(Clone, Debug)]
pub struct Key {
    /// Index of the request class the key belongs to.
    pub class: usize,
    /// Registered program name.
    pub name: String,
    pub program: Arc<Program>,
    pub statics: Vec<Datum>,
    /// The statics as the wire carries them.
    pub statics_text: String,
    pub dynamic: Vec<Datum>,
    /// Identifies the (program generation, statics) pair for the
    /// verification cache.
    pub id: String,
}

impl Key {
    pub fn new(
        class: usize,
        name: &str,
        program: Arc<Program>,
        statics: Vec<Datum>,
        dynamic: Vec<Datum>,
        id: String,
    ) -> Key {
        let statics_text = statics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        Key {
            class,
            name: name.to_string(),
            program,
            statics,
            statics_text,
            dynamic,
            id,
        }
    }

    /// The source program's arguments in parameter order: statics and
    /// dynamics interleaved by the division.
    fn full_args(&self) -> Vec<Datum> {
        let mut s = self.statics.iter();
        let mut d = self.dynamic.iter();
        self.program
            .division
            .iter()
            .filter_map(|bt| {
                if *bt == BT::Static {
                    s.next()
                } else {
                    d.next()
                }
            })
            .cloned()
            .collect()
    }

    /// The payload of a binary-protocol `REQ_SPEC` request asking for
    /// object code.
    pub fn spec_payload(&self) -> Vec<u8> {
        wire::SpecWireRequest {
            token: String::new(),
            name: self.name.clone(),
            statics: self.statics_text.clone(),
            deadline_ms: 0,
            want: wire::WANT_OBJECT,
        }
        .encode()
    }

    /// The `REQ_SPEC` frame of [`Key::spec_payload`].
    pub fn spec_frame(&self) -> Vec<u8> {
        wire::encode_frame(wire::REQ_SPEC, &self.spec_payload())
    }
}

/// Shortest batch of warm runs one exec sample times (µs): an image that
/// runs in a few microseconds is timed over many runs, not one.
const EXEC_BATCH_US: f64 = 100.0;

/// Runs a delivered image on the key's dynamic input, then again in a
/// batch of warm runs lasting at least [`EXEC_BATCH_US`]; returns the
/// first run's outcome and the batch's time per run in microseconds.
pub fn exec(image: &Image, key: &Key) -> Result<(RunOutcome, f64), String> {
    let run = || run_image(image, image.entry.as_str(), &key.dynamic).map_err(|e| e.to_string());
    let out = run()?;
    let t = Instant::now();
    let mut runs = 0u32;
    loop {
        std::hint::black_box(run()?);
        runs += 1;
        let us = t.elapsed().as_secs_f64() * 1e6;
        if us >= EXEC_BATCH_US {
            return Ok((out, us / f64::from(runs)));
        }
    }
}

/// A checked delivery.
pub struct Checked {
    pub image: Arc<Image>,
    /// Run time of the image on the key's dynamic input, when this check
    /// ran it (first delivery of these bytes).
    pub exec_us: Option<f64>,
}

/// Response bytes that passed the oracle, with their decoded image.
type Verified = (Vec<u8>, Arc<Image>);

/// Parsed sources the oracle keeps before starting over.
const MAX_PARSED: usize = 8;

/// The correctness oracle with its caches: parsed sources, expected
/// outcomes per key, and the response bytes already verified per key.
#[derive(Default)]
pub struct Verifier {
    parsed: HashMap<String, Arc<cs::Program>>,
    expected: HashMap<String, RunOutcome>,
    verified: HashMap<String, Vec<Verified>>,
}

impl Verifier {
    /// Forgets every key (their program generations are gone), and the
    /// parsed sources once they pile up.
    pub fn clear_keys(&mut self) {
        self.expected.clear();
        self.verified.clear();
        if self.parsed.len() > MAX_PARSED {
            self.parsed.clear();
        }
    }

    fn expected(&mut self, key: &Key) -> Result<RunOutcome, String> {
        if let Some(e) = self.expected.get(&key.id) {
            return Ok(e.clone());
        }
        let parsed = match self.parsed.get(&key.program.source) {
            Some(p) => p.clone(),
            None => {
                let p = Arc::new(key.program.parse()?);
                self.parsed.insert(key.program.source.clone(), p.clone());
                p
            }
        };
        let out = interpret(&parsed, &key.program.entry, &key.full_args())
            .map_err(|e| format!("reference interpreter failed on {}: {e}", key.id))?;
        self.expected.insert(key.id.clone(), out.clone());
        Ok(out)
    }

    /// Checks an image against the reference interpreter; returns the
    /// image's run time (see [`exec`]).
    pub fn check_image(&mut self, key: &Key, image: &Image) -> Result<f64, String> {
        let want = self.expected(key)?;
        let (got, us) = exec(image, key)?;
        if got != want {
            return Err(format!(
                "{}: image computes {} (output {:?}), interpreter {} (output {:?})",
                key.id, got.value, got.output, want.value, want.output
            ));
        }
        Ok(us)
    }

    /// Checks wire response bytes: bytes already verified for this key
    /// are accepted by comparison, anything else is decoded and checked
    /// against the reference interpreter.
    pub fn check_bytes(&mut self, key: &Key, bytes: &[u8]) -> Result<Checked, String> {
        if let Some(seen) = self.verified.get(&key.id) {
            if let Some((_, image)) = seen.iter().find(|(b, _)| b == bytes) {
                return Ok(Checked {
                    image: image.clone(),
                    exec_us: None,
                });
            }
        }
        let image = Arc::new(decode_image(bytes).map_err(|e| format!("{}: {e}", key.id))?);
        let us = self.check_image(key, &image)?;
        self.verified
            .entry(key.id.clone())
            .or_default()
            .push((bytes.to_vec(), image.clone()));
        Ok(Checked {
            image,
            exec_us: Some(us),
        })
    }
}
