//! The three workloads. Each runs from one client thread in a closed
//! loop (an RTCG caller waits for its code) and advances in *cycles*:
//! units after which every class has received the same reads, so counts
//! such as `code_instrs` repeat exactly for a seed however many cycles a
//! run completes. Classes are interleaved inside a cycle, never run in
//! blocks, so host-speed phases hit every class alike.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use two4one::{encode_image, reader, CancelToken, Datum, GenExt, Image, Limits};
use two4one_langs as langs;
use two4one_langs::grammar;
use two4one_net::{wire, NetConfig, NetServer};
use two4one_server::{ServeConfig, ServeSnapshot, SpecRequest, SpecService, TierSnapshot};

use crate::client::Client;
use crate::gen::{self, Rng};
use crate::probe::{ProbeSet, ProbeSubject};
use crate::rec::Rec;
use crate::subject::{exec, Key, Program, Verifier};
use crate::trace::{Tracer, ROOT};

/// Window counts a workload reports after its self-checks.
#[derive(Default, Debug)]
pub struct Counts {
    pub reads: u64,
    pub writes: u64,
    pub hits: u64,
    pub misses: u64,
    pub spec_runs: u64,
    pub invalidated: u64,
}

pub trait Workload {
    fn read_classes(&self) -> Vec<&'static str>;
    fn write_classes(&self) -> Vec<&'static str>;
    /// One cycle of operations.
    fn cycle(&mut self, rec: &mut Rec) -> Result<(), String>;
    /// Marks the start of the measured window.
    fn begin(&mut self);
    /// Runs the self-checks over the measured window.
    fn finish(&mut self) -> Result<Counts, String>;
    /// The programs the traced run's layer probe exercises.
    fn probe_set(&self) -> ProbeSet;
    /// Stops the workload's server threads.
    fn shutdown(self: Box<Self>);
}

const WORKLOADS: [&str; 3] = ["warm-hit", "cold-miss", "tier0-churn"];

/// Builds a workload: this is what `setup_s` times.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "warm-hit" => Ok(Box::new(WarmHit::setup(seed)?)),
        "cold-miss" => Ok(Box::new(ColdMiss::setup(seed)?)),
        "tier0-churn" => Ok(Box::new(Tier0Churn::setup(seed)?)),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

// ---- shared pieces ------------------------------------------------------

/// MIXWELL's and LAZY's dynamic inputs: small, so that the reference
/// interpreter (which interprets an interpreter) stays cheap enough to
/// check every delivered image.
fn mixwell_input() -> Vec<Datum> {
    vec![Datum::list([Datum::Int(6)])]
}

fn lazy_input() -> Vec<Datum> {
    vec![Datum::list([Datum::Int(3), Datum::Int(3)])]
}

/// Length of the grammar classes' input words.
const WORD_LEN: usize = 16;

/// A service behind a socket, with one client connection.
struct Wire {
    service: Arc<SpecService>,
    server: NetServer,
    client: Client,
}

impl Wire {
    /// Builds the service, binds and connects. Set-up ends with the
    /// caller's in-process registration and prefill: the server accepts
    /// the connection on its own schedule (a 5 ms poll), which overlaps
    /// that work or falls into the warm-up, never into `setup_s`.
    fn new(config: ServeConfig) -> Result<Wire, String> {
        let service = Arc::new(SpecService::with_config(config));
        let server = NetServer::bind(
            service.clone(),
            NetConfig {
                accept_threads: 1,
                ..NetConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr: SocketAddr = server.addr();
        let client = Client::connect(addr)?;
        Ok(Wire {
            service,
            server,
            client,
        })
    }

    fn shutdown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// Times one wire read: `(start, sent, done, response payload)`.
pub fn wire_read(
    client: &mut Client,
    frame: &[u8],
) -> (Instant, Instant, Instant, Result<Vec<u8>, String>) {
    let t0 = Instant::now();
    let sent = client.send(frame);
    let t1 = Instant::now();
    let got = sent.and_then(|()| client.recv());
    let t2 = Instant::now();
    let payload = got.and_then(|f| {
        if f.ftype == wire::RESP_OBJECT {
            Ok(f.payload)
        } else {
            Err(format!("unexpected response type {:#x}", f.ftype))
        }
    });
    (t0, t1, t2, payload)
}

/// Records the client-side spans of a traced wire read; returns the
/// read span's index.
pub fn trace_read(
    tracer: &mut Tracer,
    class: usize,
    rid: u64,
    (t0, t1, t2): (Instant, Instant, Instant),
) -> usize {
    let read = tracer.record("read", class, rid, ROOT, t0, t2);
    tracer.record("net.send", class, rid, read, t0, t1);
    tracer.record("net.recv", class, rid, read, t1, t2);
    read
}

/// Verifies a delivery and, for a timed read, takes an exec sample when
/// one is due; returns the image.
fn verify_bytes(
    rec: &mut Rec,
    verifier: &mut Verifier,
    class: Option<usize>,
    key: &Key,
    bytes: &[u8],
) -> Result<Arc<Image>, String> {
    let checked = verifier.check_bytes(key, bytes)?;
    let Some(class) = class else {
        return Ok(checked.image);
    };
    match checked.exec_us {
        Some(us) => rec.exec(class, us),
        None if rec.exec_due(class) => {
            let (_, us) = exec(&checked.image, key)?;
            rec.exec(class, us);
        }
        None => {}
    }
    Ok(checked.image)
}

/// Runs `f` the way the service runs a fill: on a fresh thread with the
/// service's stack size.
fn on_fill_thread<T: Send>(f: impl FnOnce() -> T + Send) -> Result<T, String> {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(ServeConfig::default().stack_bytes)
            .spawn_scoped(scope, f)
            .map_err(|e| format!("spawning a fill thread: {e}"))?
            .join()
            .map_err(|_| "a fill thread panicked".to_string())
    })
}

/// The service step a replay runs on the parsed statics.
pub type ServiceStep<'a> = dyn Fn(&[Datum]) -> Result<(), String> + 'a;

/// Serves `name` on `statics` the way the network handler does: a
/// request carrying the handler's deadline and a fresh child of a
/// connection's cancellation token.
pub fn handler_call(service: &SpecService, name: &str, statics: &[Datum]) -> Result<(), String> {
    let request = SpecRequest::named(name, statics.to_vec())
        .with_deadline(NetConfig::default().request_deadline)
        .with_cancel(CancelToken::new().child());
    service
        .specialize_request(&request)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Writes a request and a response frame and reads them back, in memory.
pub fn codec(request: &[u8], response: &[u8]) -> Result<(), wire::ProtocolError> {
    let req = wire::encode_frame(wire::REQ_SPEC, request);
    wire::read_frame(&mut Cursor::new(&req), usize::MAX)?;
    let resp = wire::encode_frame(wire::RESP_OBJECT, response);
    wire::read_frame(&mut Cursor::new(&resp), usize::MAX)?;
    Ok(())
}

/// The parts of a traced wire read, each measured on its own under the
/// read's request id: a refused request's round trip on the same
/// connection (see [`Client::refused`]), the frame codec of the read's
/// request and response, and an in-process replay of its server-side
/// steps (parse the statics text, run the service step, encode the
/// image).
pub struct WireParts {
    pub handler: f64,
    pub codec: f64,
    /// The replay's total time (µs).
    pub replay: f64,
    /// The replay's steps: `syntax.read`, the service step, `vm.encode`.
    pub steps: [(&'static str, f64); 3],
}

impl WireParts {
    /// The parts as named layers.
    pub fn layers(&self) -> [(&'static str, f64); 5] {
        let [read, step, encode] = self.steps;
        [
            ("net.handler", self.handler),
            ("net.codec", self.codec),
            read,
            step,
            encode,
        ]
    }
}

/// Measures a traced wire read's [`WireParts`].
#[allow(clippy::too_many_arguments)]
pub fn wire_parts(
    tracer: &mut Tracer,
    client: &mut Client,
    class: usize,
    rid: u64,
    key: &Key,
    step: (&'static str, &ServiceStep),
    image: &Image,
    response: &[u8],
) -> Result<WireParts, String> {
    let (refused, handler) = tracer.time("net.handler", class, rid, || client.refused());
    refused?;
    let request = key.spec_payload();
    let (coded, codec_us) = tracer.time("net.codec", class, rid, || codec(&request, response));
    coded.map_err(|e| format!("codec: {e}"))?;
    let ta = Instant::now();
    let statics = reader::read_all_with(&key.statics_text, &Limits::default())
        .map_err(|e| format!("replay read: {e}"))?;
    let tb = Instant::now();
    (step.1)(&statics)?;
    let tc = Instant::now();
    std::hint::black_box(encode_image(image));
    let td = Instant::now();
    let root = tracer.record("replay", class, rid, ROOT, ta, td);
    tracer.record("syntax.read", class, rid, root, ta, tb);
    tracer.record(step.0, class, rid, root, tb, tc);
    tracer.record("vm.encode", class, rid, root, tc, td);
    let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
    Ok(WireParts {
        handler,
        codec: codec_us,
        replay: us(ta, td),
        steps: [
            ("syntax.read", us(ta, tb)),
            (step.0, us(tb, tc)),
            ("vm.encode", us(tc, td)),
        ],
    })
}

/// A program variant and the frame that registers it.
type Registration = (Arc<Program>, Vec<u8>);

/// A traced wire read waiting for its parts to be measured.
struct Pending {
    class: usize,
    rid: u64,
    /// Index of the key read.
    key: usize,
    image: Arc<Image>,
    response: Vec<u8>,
}

fn snapshot_delta(now: &ServeSnapshot, base: &ServeSnapshot) -> Counts {
    Counts {
        hits: now.hits - base.hits,
        misses: now.misses - base.misses,
        spec_runs: now.spec_runs - base.spec_runs,
        invalidated: now.invalidated - base.invalidated,
        ..Counts::default()
    }
}

fn probe_subject(label: &str, key: &Key, fresh: Vec<Vec<Datum>>) -> ProbeSubject {
    ProbeSubject {
        label: label.to_string(),
        key: key.clone(),
        fresh,
    }
}

/// Fresh statics for the probe's misses: renamed copies of `program`.
fn fresh_programs(rng: &mut Rng, program: &Datum, n: usize) -> Vec<Vec<Datum>> {
    (0..n)
        .map(|_| vec![gen::rename_functions(program, &rng.tag())])
        .collect()
}

// ---- warm-hit -----------------------------------------------------------

/// Keys per read class in warm-hit's working set.
const WARM_KEYS: usize = 8;

/// Binary-protocol reads with `WANT_OBJECT` over a prefilled working set
/// far below `max_entries`: every read is a hit. One write per cycle
/// redefines a bystander program no read touches.
struct WarmHit {
    wire: Wire,
    /// In cycle order: key `k` of every class, then key `k + 1`.
    keys: Vec<Key>,
    frames: Vec<Vec<u8>>,
    rng: Rng,
    verifier: Verifier,
    reads: u64,
    writes: u64,
    replays: u64,
    base: ServeSnapshot,
}

impl WarmHit {
    fn setup(seed: u64) -> Result<WarmHit, String> {
        let mut rng = Rng::new(seed);
        let wire = Wire::new(ServeConfig::default())?;
        let service = &wire.service;

        let (src, entry) = gen::power_source(&rng.tag());
        let power = Arc::new(Program::plain(src, entry, "DS"));
        service.register("power", &power.build()?);
        let mixwell = Arc::new(Program::mixwell());
        service.register("mixwell", &mixwell.build()?);
        let lazy = Arc::new(Program::lazy());
        service.register("lazy", &lazy.build()?);
        let (src, entry) = gen::bystander_source(&rng.tag());
        service.register("bystander", &Program::plain(src, entry, "SD").build()?);

        let base_n = 12 + rng.below(4) as i64;
        let mut keys = Vec::new();
        for k in 0..WARM_KEYS {
            let n = base_n + 3 * k as i64;
            let x = 2 + rng.below(2) as i64;
            keys.push(Key::new(
                0,
                "power",
                power.clone(),
                vec![Datum::Int(n)],
                vec![Datum::Int(x)],
                format!("power/{k}"),
            ));
            let prog = gen::rename_functions(&langs::mixwell_program(), &rng.tag());
            keys.push(Key::new(
                1,
                "mixwell",
                mixwell.clone(),
                vec![prog],
                mixwell_input(),
                format!("mixwell/{k}"),
            ));
            let prog = gen::rename_functions(&langs::lazy_program(), &rng.tag());
            keys.push(Key::new(
                2,
                "lazy",
                lazy.clone(),
                vec![prog],
                lazy_input(),
                format!("lazy/{k}"),
            ));
            let name = format!("grammar-{k}");
            let g = Arc::new(Program::grammar(&gen::grammar_text(&rng.tag()))?);
            service.register(&name, &g.build()?);
            let word = gen::ident_word(&mut rng, WORD_LEN);
            keys.push(Key::new(
                3,
                &name,
                g,
                Vec::new(),
                vec![grammar::input_datum(&word)],
                format!("grammar/{k}"),
            ));
        }
        // Prefill: every key's specialization (and each program's
        // compiled generating extension) is built here, in set-up.
        for key in &keys {
            service
                .specialize_named(&key.name, &key.statics)
                .map_err(|e| format!("prefill {}: {e}", key.id))?;
        }
        let frames = keys.iter().map(Key::spec_frame).collect();
        Ok(WarmHit {
            base: service.stats(),
            wire,
            keys,
            frames,
            rng,
            verifier: Verifier::default(),
            reads: 0,
            writes: 0,
            replays: 0,
        })
    }
}

impl Workload for WarmHit {
    fn read_classes(&self) -> Vec<&'static str> {
        vec!["power", "mixwell", "lazy", "grammar"]
    }

    fn write_classes(&self) -> Vec<&'static str> {
        vec!["bystander"]
    }

    fn cycle(&mut self, rec: &mut Rec) -> Result<(), String> {
        let mut pending = Vec::new();
        for i in 0..self.keys.len() {
            let key = &self.keys[i];
            let class = key.class;
            let (t0, t1, t2, got) = wire_read(&mut self.wire.client, &self.frames[i]);
            let checked = got.and_then(|bytes| {
                let image = verify_bytes(rec, &mut self.verifier, Some(class), key, &bytes)?;
                Ok((image, bytes))
            });
            let code = checked
                .as_ref()
                .map(|(img, _)| img.code_size())
                .map_err(Clone::clone);
            rec.read(Some(class), t2 - t0, code);
            if !rec.measuring {
                continue;
            }
            self.reads += 1;
            if let (true, Ok((image, response))) = (rec.tracing, checked) {
                let rid = rec.tracer.rid();
                trace_read(&mut rec.tracer, class, rid, (t0, t1, t2));
                pending.push(Pending {
                    class,
                    rid,
                    key: i,
                    image,
                    response,
                });
            }
        }
        // Parts are measured after the cycle's reads, so the traced reads
        // run back to back exactly like untraced ones.
        for p in pending {
            let key = &self.keys[p.key];
            let service = self.wire.service.clone();
            let hit = |statics: &[Datum]| handler_call(&service, &key.name, statics);
            let parts = wire_parts(
                &mut rec.tracer,
                &mut self.wire.client,
                p.class,
                p.rid,
                key,
                ("server.hit", &hit),
                &p.image,
                &p.response,
            )?;
            self.replays += 1;
            rec.layers(p.class, &parts.layers());
        }
        let (src, entry) = gen::bystander_source(&self.rng.tag());
        let frame = Program::plain(src, entry, "SD").register_frame("bystander");
        let t0 = Instant::now();
        let got = self.wire.client.call(&frame, wire::RESP_META);
        rec.write(0, t0.elapsed(), got.map(|_| ()));
        if rec.measuring {
            self.writes += 1;
        }
        Ok(())
    }

    fn begin(&mut self) {
        self.base = self.wire.service.stats();
        self.reads = 0;
        self.writes = 0;
        self.replays = 0;
    }

    fn finish(&mut self) -> Result<Counts, String> {
        let d = snapshot_delta(&self.wire.service.stats(), &self.base);
        if d.hits != self.reads + self.replays || d.misses != 0 {
            return Err(format!(
                "warm-hit: {} hits and {} misses for {} reads and {} replays; every read must hit",
                d.hits, d.misses, self.reads, self.replays
            ));
        }
        if d.invalidated != 0 {
            return Err(format!(
                "warm-hit: bystander writes invalidated {} cached entries",
                d.invalidated
            ));
        }
        Ok(Counts {
            reads: self.reads,
            writes: self.writes,
            hits: d.hits - self.replays,
            ..d
        })
    }

    fn probe_set(&self) -> ProbeSet {
        let mut rng = Rng::new(0x9b0e);
        let first = |c: usize| self.keys.iter().find(|k| k.class == c).expect("class key");
        let power = first(0);
        let power_fresh = (0..crate::probe::REPS)
            .map(|r| vec![Datum::Int(40 + r as i64)])
            .collect();
        ProbeSet {
            subjects: vec![
                probe_subject("power", power, power_fresh),
                probe_subject(
                    "mixwell",
                    first(1),
                    fresh_programs(&mut rng, &langs::mixwell_program(), crate::probe::REPS),
                ),
                probe_subject(
                    "lazy",
                    first(2),
                    fresh_programs(&mut rng, &langs::lazy_program(), crate::probe::REPS),
                ),
                probe_subject("grammar", first(3), Vec::new()),
            ],
            grammar: first(3).program.grammar.clone().unwrap_or_default(),
        }
    }

    fn shutdown(self: Box<Self>) {
        self.wire.shutdown();
    }
}

// ---- cold-miss ----------------------------------------------------------

/// cold-miss's cache: smaller than the key space, so misses evict.
const COLD_MAX_ENTRIES: usize = 64;

/// Names cold-miss's grammar writes cycle through.
const COLD_GRAMMAR_NAMES: u64 = 4;

struct ColdProgram {
    name: &'static str,
    program: Arc<Program>,
    ext: GenExt,
    base: Datum,
    input: Vec<Datum>,
}

/// In-process reads, each with fresh statics, alternating between the
/// anonymous route (`specialize`: walker, restaged on every call) and the
/// named route (`specialize_named`: compiled gen-ext machine). Writes
/// register fresh grammars no read touches.
struct ColdMiss {
    service: SpecService,
    programs: [ColdProgram; 2],
    rng: Rng,
    verifier: Verifier,
    reads: u64,
    writes: u64,
    next_id: u64,
    base: ServeSnapshot,
}

impl ColdMiss {
    fn setup(seed: u64) -> Result<ColdMiss, String> {
        let service = SpecService::with_config(ServeConfig {
            max_entries: COLD_MAX_ENTRIES,
            ..ServeConfig::default()
        });
        let mk = |name: &'static str, program: Program, base: Datum, input: Vec<Datum>| {
            let program = Arc::new(program);
            let ext = program.build()?;
            service.register(name, &ext);
            Ok::<_, String>(ColdProgram {
                name,
                program,
                ext,
                base,
                input,
            })
        };
        let programs = [
            mk(
                "mixwell",
                Program::mixwell(),
                langs::mixwell_program(),
                mixwell_input(),
            )?,
            mk("lazy", Program::lazy(), langs::lazy_program(), lazy_input())?,
        ];
        // Prime both routes once per program: the named route stages the
        // program's compiled generating extension here, in set-up.
        for p in &programs {
            let statics = [p.base.clone()];
            service
                .specialize_named(p.name, &statics)
                .map_err(|e| format!("priming {}: {e}", p.name))?;
            service
                .specialize(&p.ext, &statics)
                .map_err(|e| format!("priming {}: {e}", p.name))?;
        }
        Ok(ColdMiss {
            base: service.stats(),
            service,
            programs,
            rng: Rng::new(seed),
            verifier: Verifier::default(),
            reads: 0,
            writes: 0,
            next_id: 0,
        })
    }
}

impl Workload for ColdMiss {
    fn read_classes(&self) -> Vec<&'static str> {
        vec!["mixwell.anon", "mixwell.named", "lazy.anon", "lazy.named"]
    }

    fn write_classes(&self) -> Vec<&'static str> {
        vec!["grammar"]
    }

    fn cycle(&mut self, rec: &mut Rec) -> Result<(), String> {
        for class in 0..4 {
            let p = &self.programs[class / 2];
            let named = class % 2 == 1;
            self.next_id += 1;
            let statics = vec![gen::rename_functions(&p.base, &self.rng.tag())];
            let key = Key::new(
                class,
                p.name,
                p.program.clone(),
                statics,
                p.input.clone(),
                format!("{}/{}", p.name, self.next_id),
            );
            let t0 = Instant::now();
            let got = if named {
                self.service.specialize_named(p.name, &key.statics)
            } else {
                self.service.specialize(&p.ext, &key.statics)
            };
            let t1 = Instant::now();
            let code = got.map_err(|e| e.to_string()).and_then(|out| {
                let us = self.verifier.check_image(&key, &out.image)?;
                rec.exec(class, us);
                Ok(out.image.code_size())
            });
            self.verifier.clear_keys();
            let ok = code.is_ok();
            rec.read(Some(class), t1 - t0, code);
            if !rec.measuring {
                continue;
            }
            self.reads += 1;
            if rec.tracing && ok {
                let rid = rec.tracer.rid();
                rec.tracer.record("read", class, rid, ROOT, t0, t1);
                let compiled = if named {
                    let compiled = self
                        .service
                        .genext_of(p.name)
                        .ok_or("no compiled generating extension after a named read")?;
                    Some(compiled)
                } else {
                    None
                };
                // The engine re-run on the same statics, on a thread like
                // the service's fill thread; the server's own steps
                // (statics key, cache insert and eviction) are left as the
                // reconciliation's residual.
                let fa = Instant::now();
                let (r, ea, eb) = on_fill_thread(|| {
                    let ea = Instant::now();
                    let options = p.ext.options();
                    let r = match &compiled {
                        Some(c) => c.specialize_object_governed(&key.statics, options, None),
                        None => p
                            .ext
                            .specialize_object_governed(&key.statics, options, None),
                    };
                    (r.map(|_| ()).map_err(|e| e.to_string()), ea, Instant::now())
                })?;
                let fb = Instant::now();
                r?;
                let fill = rec.tracer.record("server.fill", class, rid, ROOT, fa, fb);
                let engine = if named { "pe.genrun" } else { "pe.walk" };
                rec.tracer.record(engine, class, rid, fill, ea, eb);
                let us = fb.duration_since(fa).as_secs_f64() * 1e6;
                rec.layers(class, &[("server.fill", us)]);
            }
        }
        let text = gen::grammar_text(&self.rng.tag());
        let name = format!("grammar-{}", self.writes % COLD_GRAMMAR_NAMES);
        let t0 = Instant::now();
        let built = Program::grammar(&text).and_then(|g| g.build());
        let got = built.map(|ext| {
            self.service.register(&name, &ext);
        });
        rec.write(0, t0.elapsed(), got);
        self.writes += 1;
        Ok(())
    }

    fn begin(&mut self) {
        self.base = self.service.stats();
        self.reads = 0;
    }

    fn finish(&mut self) -> Result<Counts, String> {
        let d = snapshot_delta(&self.service.stats(), &self.base);
        if d.spec_runs != self.reads || d.misses != self.reads || d.hits != 0 {
            return Err(format!(
                "cold-miss: {} spec runs, {} misses, {} hits for {} reads; every read must miss",
                d.spec_runs, d.misses, d.hits, self.reads
            ));
        }
        Ok(Counts {
            reads: self.reads,
            writes: self.writes,
            ..d
        })
    }

    fn probe_set(&self) -> ProbeSet {
        let mut rng = Rng::new(0xc01d);
        let mut subjects: Vec<ProbeSubject> = self
            .programs
            .iter()
            .map(|p| {
                let key = Key::new(
                    0,
                    p.name,
                    p.program.clone(),
                    vec![gen::rename_functions(&p.base, &rng.tag())],
                    p.input.clone(),
                    format!("probe/{}", p.name),
                );
                let fresh = fresh_programs(&mut rng, &p.base, crate::probe::REPS);
                probe_subject(p.name, &key, fresh)
            })
            .collect();
        // The grammars the writes register.
        let text = gen::grammar_text(&rng.tag());
        if let Ok(g) = Program::grammar(&text) {
            let word = gen::ident_word(&mut rng, WORD_LEN);
            let key = Key::new(
                0,
                "grammar",
                Arc::new(g),
                Vec::new(),
                vec![grammar::input_datum(&word)],
                "probe/grammar".to_string(),
            );
            subjects.push(probe_subject("grammar", &key, Vec::new()));
        }
        ProbeSet {
            subjects,
            grammar: text,
        }
    }

    fn shutdown(self: Box<Self>) {}
}

// ---- tier0-churn --------------------------------------------------------

/// Hits a Tier-0 entry takes before promotion is enqueued.
const PROMOTE_AFTER: u64 = 2;
/// Timed read classes of a tier0-churn key: first touch, generic hit,
/// promoted hit.
const TIMED: usize = 3;
/// Reads per key after the round's promotions have landed.
const POST_PROMOTION_READS: usize = 4;
/// How long the barrier waits for a round's promotions before the run
/// fails.
const BARRIER_LIMIT: Duration = Duration::from_secs(10);

/// Wire reads against a tiered service, in rounds: redefine the two read
/// programs → first-touch reads (Tier-0 generic code) → hits up to
/// `promote_after` → barrier until the round's promotions land →
/// post-promotion reads of the specialized code.
struct Tier0Churn {
    wire: Wire,
    rng: Rng,
    verifier: Verifier,
    power_n: i64,
    power_x: i64,
    word: String,
    round: u64,
    reads: u64,
    first_touch: u64,
    writes: u64,
    /// Traced reads replayed as hits on the live service (they count as
    /// hits).
    replays: u64,
    /// The traced run's replay service for Tier-0 first touches and
    /// generic hits.
    shadow: Option<SpecService>,
    promotions: u64,
    base: ServeSnapshot,
    tier_base: TierSnapshot,
}

impl Tier0Churn {
    fn setup(seed: u64) -> Result<Tier0Churn, String> {
        let mut rng = Rng::new(seed);
        let wire = Wire::new(ServeConfig {
            tier0: true,
            promote_workers: 1,
            promote_after: PROMOTE_AFTER,
            ..ServeConfig::default()
        })?;
        let mut w = Tier0Churn {
            base: wire.service.stats(),
            tier_base: wire.service.tier_stats(),
            wire,
            power_n: 12 + rng.below(4) as i64,
            power_x: 2 + rng.below(2) as i64,
            word: gen::ident_word(&mut rng, WORD_LEN),
            rng,
            verifier: Verifier::default(),
            round: 0,
            reads: 0,
            first_touch: 0,
            writes: 0,
            replays: 0,
            promotions: 0,
            shadow: None,
        };
        // Register both programs, so every write is a redefinition of a
        // program that is being read, and prime them in process: first
        // touch, hits up to `promote_after`, promotion.
        let [(power, _), (g, _)] = w.next_programs()?;
        w.wire.service.register("power", &power.build()?);
        w.wire.service.register("grammar", &g.build()?);
        for key in w.keys(&[power, g]) {
            for _ in 0..=PROMOTE_AFTER {
                w.wire
                    .service
                    .specialize_named(&key.name, &key.statics)
                    .map_err(|e| format!("priming {}: {e}", key.id))?;
            }
        }
        w.barrier(2)?;
        w.tier_base = w.wire.service.tier_stats();
        Ok(w)
    }

    /// The round's program variants and their registration frames.
    fn next_programs(&mut self) -> Result<[Registration; 2], String> {
        let (src, entry) = gen::power_source(&self.rng.tag());
        let power = Arc::new(Program::plain(src, entry, "DS"));
        let g = Arc::new(Program::grammar(&gen::grammar_text(&self.rng.tag()))?);
        Ok([
            (power.clone(), power.register_frame("power")),
            (g.clone(), g.register_frame("grammar")),
        ])
    }

    fn keys(&self, programs: &[Arc<Program>; 2]) -> [Key; 2] {
        [
            Key::new(
                0,
                "power",
                programs[0].clone(),
                vec![Datum::Int(self.power_n)],
                vec![Datum::Int(self.power_x)],
                format!("power/{}", self.round),
            ),
            Key::new(
                1,
                "grammar",
                programs[1].clone(),
                Vec::new(),
                vec![grammar::input_datum(&self.word)],
                format!("grammar/{}", self.round),
            ),
        ]
    }

    /// One wire read of `key` in `phase`: 0 first touch, 1 generic hit,
    /// 2 the generic hit that enqueues the promotion, 3 promoted hit. The
    /// enqueueing hit is checked and counted but not timed: the promotion
    /// worker shares the client's CPU and may run before its response is
    /// written, which would make its latency depend on the race.
    fn read(
        &mut self,
        rec: &mut Rec,
        key: &Key,
        frame: &[u8],
        phase: usize,
        pending: &mut Vec<Pending>,
    ) {
        let class = match phase {
            0 | 1 => Some(key.class * TIMED + phase),
            2 => None,
            _ => Some(key.class * TIMED + 2),
        };
        let (t0, t1, t2, got) = wire_read(&mut self.wire.client, frame);
        let checked = got.and_then(|bytes| {
            let image = verify_bytes(rec, &mut self.verifier, class, key, &bytes)?;
            Ok((image, bytes))
        });
        let code = checked
            .as_ref()
            .map(|(img, _)| img.code_size())
            .map_err(Clone::clone);
        rec.read(class, t2 - t0, code);
        if !rec.measuring {
            return;
        }
        self.reads += 1;
        if phase == 0 {
            self.first_touch += 1;
        }
        if let (true, Some(class), Ok((image, response))) = (rec.tracing, class, checked) {
            let rid = rec.tracer.rid();
            trace_read(&mut rec.tracer, class, rid, (t0, t1, t2));
            pending.push(Pending {
                class,
                rid,
                key: key.class,
                image,
                response,
            });
        }
    }

    /// Spins (yielding, never sleeping) until the round's promotions
    /// have landed and nothing is queued.
    fn barrier(&self, expected: u64) -> Result<(), String> {
        let started = Instant::now();
        loop {
            let t = self.wire.service.tier_stats();
            let promoted = t.promotions - self.tier_base.promotions;
            if t.queued == 0 && promoted >= expected {
                return Ok(());
            }
            if t.demotions != self.tier_base.demotions
                || t.swap_epoch_conflicts != self.tier_base.swap_epoch_conflicts
            {
                return Err(format!(
                    "tier0-churn round {}: a promotion was demoted or discarded ({t:?})",
                    self.round
                ));
            }
            if started.elapsed() > BARRIER_LIMIT {
                return Err(format!(
                    "tier0-churn round {}: promotions did not land within {BARRIER_LIMIT:?} ({t:?})",
                    self.round
                ));
            }
            std::thread::yield_now();
        }
    }

    /// Measures the parts of the round's traced reads after its
    /// post-promotion reads. First touches and generic hits are replayed
    /// on a shadow tiered service that never promotes (the round's
    /// programs registered anew, so the first replay is a Tier-0 fill);
    /// replaying them on the live service would count as hits on its
    /// generic entries and move their promotion. Promoted hits are
    /// replayed on the live service.
    fn replay(
        &mut self,
        rec: &mut Rec,
        keys: &[Key; 2],
        pending: Vec<Pending>,
    ) -> Result<(), String> {
        if pending.is_empty() {
            return Ok(());
        }
        let shadow = self.shadow.get_or_insert_with(|| {
            SpecService::with_config(ServeConfig {
                tier0: true,
                promote_after: u64::MAX,
                ..ServeConfig::default()
            })
        });
        for key in keys {
            shadow.redefine(&key.name, &key.program.build()?);
        }
        let live = self.wire.service.clone();
        for p in pending {
            let key = &keys[p.key];
            let (step, service) = match p.class % TIMED {
                0 => ("server.tier0", &*shadow),
                1 => ("server.hit", &*shadow),
                _ => {
                    self.replays += 1;
                    ("server.hit", &*live)
                }
            };
            let call = |statics: &[Datum]| handler_call(service, &key.name, statics);
            let parts = wire_parts(
                &mut rec.tracer,
                &mut self.wire.client,
                p.class,
                p.rid,
                key,
                (step, &call),
                &p.image,
                &p.response,
            )?;
            rec.layers(p.class, &parts.layers());
        }
        Ok(())
    }
}

impl Workload for Tier0Churn {
    fn read_classes(&self) -> Vec<&'static str> {
        vec![
            "power.first",
            "power.gen",
            "power.pro",
            "grammar.first",
            "grammar.gen",
            "grammar.pro",
        ]
    }

    fn write_classes(&self) -> Vec<&'static str> {
        vec!["power", "grammar"]
    }

    fn cycle(&mut self, rec: &mut Rec) -> Result<(), String> {
        self.round += 1;
        let programs = self.next_programs()?;
        for (i, (_, frame)) in programs.iter().enumerate() {
            let t0 = Instant::now();
            let got = self.wire.client.call(frame, wire::RESP_META);
            rec.write(i, t0.elapsed(), got.map(|_| ()));
            if rec.measuring {
                self.writes += 1;
            }
        }
        self.verifier.clear_keys();
        let keys = self.keys(&[programs[0].0.clone(), programs[1].0.clone()]);
        let frames = [keys[0].spec_frame(), keys[1].spec_frame()];
        let mut pending = Vec::new();
        let mut phases = vec![0];
        phases.extend((1..=PROMOTE_AFTER).map(|hit| if hit < PROMOTE_AFTER { 1 } else { 2 }));
        for phase in phases {
            for k in 0..2 {
                self.read(rec, &keys[k], &frames[k], phase, &mut pending);
            }
            if phase == 0 {
                // A Tier-0 fill runs on a thread of its own, which ends
                // after the response is written and would slow whichever
                // read came next. A ping inside the timed phase lets it
                // end, so that its cost shows in `throughput_rps` and not
                // in the generic-hit class.
                let t0 = Instant::now();
                self.wire.client.ping()?;
                rec.wait(t0.elapsed());
            }
        }
        self.promotions += 2;
        let t0 = Instant::now();
        self.barrier(self.promotions)?;
        rec.wait(t0.elapsed());
        for _ in 0..POST_PROMOTION_READS {
            for k in 0..2 {
                self.read(rec, &keys[k], &frames[k], 3, &mut pending);
            }
        }
        self.replay(rec, &keys, pending)
    }

    fn begin(&mut self) {
        self.base = self.wire.service.stats();
        self.reads = 0;
        self.first_touch = 0;
        self.writes = 0;
        self.replays = 0;
        self.promotions = 0;
        self.tier_base = self.wire.service.tier_stats();
    }

    fn finish(&mut self) -> Result<Counts, String> {
        let d = snapshot_delta(&self.wire.service.stats(), &self.base);
        let t = self.wire.service.tier_stats();
        let served = t.tier0_served - self.tier_base.tier0_served;
        let promoted = t.promotions - self.tier_base.promotions;
        if served != self.first_touch || promoted != self.promotions {
            return Err(format!(
                "tier0-churn: {served} Tier-0 answers for {} first touches, {promoted} promotions for {} expected",
                self.first_touch, self.promotions
            ));
        }
        if d.invalidated != self.writes {
            return Err(format!(
                "tier0-churn: {} writes invalidated {} entries; each must invalidate its program's one key",
                self.writes, d.invalidated
            ));
        }
        let hits = d.hits - self.replays;
        if hits != self.reads - self.first_touch {
            return Err(format!(
                "tier0-churn: {hits} hits for {} reads after first touch",
                self.reads - self.first_touch
            ));
        }
        Ok(Counts {
            reads: self.reads,
            writes: self.writes,
            hits,
            ..d
        })
    }

    fn probe_set(&self) -> ProbeSet {
        let mut rng = Rng::new(0x7e40);
        let (src, entry) = gen::power_source(&rng.tag());
        let power = Arc::new(Program::plain(src, entry, "DS"));
        let text = gen::grammar_text(&rng.tag());
        let g = Program::grammar(&text).map(Arc::new);
        let mut subjects = vec![probe_subject(
            "power",
            &Key::new(
                0,
                "power",
                power,
                vec![Datum::Int(self.power_n)],
                vec![Datum::Int(self.power_x)],
                "probe/power".to_string(),
            ),
            (0..crate::probe::REPS)
                .map(|r| vec![Datum::Int(40 + r as i64)])
                .collect(),
        )];
        if let Ok(g) = g {
            subjects.push(probe_subject(
                "grammar",
                &Key::new(
                    1,
                    "grammar",
                    g,
                    Vec::new(),
                    vec![grammar::input_datum(&self.word)],
                    "probe/grammar".to_string(),
                ),
                Vec::new(),
            ));
        }
        ProbeSet {
            subjects,
            grammar: text,
        }
    }

    fn shutdown(self: Box<Self>) {
        self.wire.shutdown();
    }
}
