//! The traced run's layer probe: times calls into each layer's public
//! functions on the workload's own programs, one span per call. Each
//! layer figure is the median per program (or per program and route),
//! combined across them with a geometric mean.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use two4one::{encode_image, obs, reader, run_image_profiled, Datum, ExecProfile, Limits};
use two4one_langs::grammar;
use two4one_net::{NetConfig, NetServer};
use two4one_server::{ServeConfig, SpecService};

use crate::client::Client;
use crate::rec::{geomean, median};
use crate::subject::Key;
use crate::trace::Tracer;
use crate::workloads::{trace_read, wire_parts, wire_read};

/// Repetitions of every probe call per program.
pub const REPS: usize = 24;

pub struct ProbeSubject {
    pub label: String,
    pub key: Key,
    /// Fresh statics for each repetition's misses (empty for programs
    /// without statics).
    pub fresh: Vec<Vec<Datum>>,
}

pub struct ProbeSet {
    pub subjects: Vec<ProbeSubject>,
    /// The grammar the workload serves or writes.
    pub grammar: String,
}

/// Samples by (span name, class label).
type Samples = BTreeMap<(&'static str, String), Vec<f64>>;

fn us(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e6
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("probe {what}: {e}")
}

/// Runs the probe; returns the per-layer metrics it measures, by name.
pub fn run(set: &ProbeSet, tracer: &mut Tracer) -> Result<BTreeMap<&'static str, f64>, String> {
    let svc = Arc::new(SpecService::new());
    let tsvc = SpecService::with_config(ServeConfig {
        tier0: true,
        promote_workers: 1,
        promote_after: 2,
        ..ServeConfig::default()
    });
    let server = NetServer::bind(
        svc.clone(),
        NetConfig {
            accept_threads: 1,
            ..NetConfig::default()
        },
    )
    .map_err(err("bind"))?;
    let mut client = Client::connect(server.addr())?;

    let mut exts = Vec::new();
    for s in &set.subjects {
        let k = &s.key;
        let ext = k.program.build()?;
        svc.register(&k.name, &ext);
        tsvc.register(&k.name, &ext);
        svc.specialize_named(&k.name, &k.statics)
            .map_err(err("prefill"))?;
        exts.push(ext);
    }

    let mut samples = Samples::new();
    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let tier_base = tsvc.tier_stats().promotions;
    let mut promotions = 0;
    let mut tier0_errors = 0u32;
    for r in 0..REPS {
        for (si, s) in set.subjects.iter().enumerate() {
            let k = &s.key;
            let p = &k.program;
            let label = s.label.clone();
            let rid = tracer.rid();
            let mut put = |name: &'static str, class: String, v: f64| {
                samples.entry((name, class)).or_default().push(v);
            };

            let (parsed, t) = tracer.time("frontend.parse", si, rid, || p.parse());
            let parsed = parsed?;
            put("frontend.parse", label.clone(), t);
            let (ext, t) = tracer.time("bta.cogen", si, rid, || p.cogen(&parsed));
            let ext = ext?;
            put("bta.cogen", label.clone(), t);
            let (compiled, t) = tracer.time("pe.stage", si, rid, || ext.compile());
            let compiled = compiled.map_err(err("stage"))?;
            put("pe.stage", label.clone(), t);
            let (walked, t) = tracer.time("pe.walk", si, rid, || {
                ext.specialize_object_with_stats(&k.statics)
            });
            let (image, stats) = walked.map_err(err("walk"))?;
            put("pe.walk", label.clone(), t);
            let (ran, t) = tracer.time("pe.genrun", si, rid, || {
                compiled.specialize_object_with_stats(&k.statics)
            });
            ran.map_err(err("genrun"))?;
            put("pe.genrun", label.clone(), t);
            let (generic, t) = tracer.time("compiler.generic", si, rid, || {
                two4one::compile(&parsed, &p.entry)
            });
            generic.map_err(err("generic compile"))?;
            put("compiler.generic", label.clone(), t);
            let (encoded, t) = tracer.time("vm.encode", si, rid, || encode_image(&image));
            std::hint::black_box(encoded);
            put("vm.encode", label.clone(), t);
            if !k.statics.is_empty() {
                let (read, t) = tracer.time("syntax.read", si, rid, || {
                    reader::read_all_with(&k.statics_text, &Limits::default())
                });
                read.map_err(err("read"))?;
                put("syntax.read", label.clone(), t);
            }

            // Hit cost with telemetry on and off, alternating which goes
            // first.
            for on in if r % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            } {
                obs::set_enabled(on);
                let name = if on { "server.hit" } else { "server.hit.noobs" };
                let (hit, t) =
                    tracer.time(name, si, rid, || svc.specialize_named(&k.name, &k.statics));
                obs::set_enabled(true);
                hit.map_err(err("hit"))?;
                put(name, label.clone(), t);
            }

            if let Some(fresh) = s.fresh.get(r) {
                let (miss, t) = tracer.time("server.miss", si, rid, || {
                    svc.specialize_named(&k.name, fresh)
                });
                miss.map_err(err("named miss"))?;
                put("server.miss", format!("{label}.named"), t);
                let (miss, t) =
                    tracer.time("server.miss", si, rid, || svc.specialize(&exts[si], fresh));
                miss.map_err(err("anonymous miss"))?;
                put("server.miss", format!("{label}.anon"), t);
            }

            // Tier-0: a redefinition empties the key, the next read is a
            // first touch, `promote_after` hits enqueue the promotion. A
            // program whose first touch fails is counted, not timed.
            tsvc.redefine(&k.name, &exts[si]);
            let (first, t) = tracer.time("server.tier0", si, rid, || {
                tsvc.specialize_named(&k.name, &k.statics)
            });
            match first {
                Err(e) => {
                    if r == 0 {
                        println!("# probe: Tier-0 first touch of {label} failed: {e}");
                        tier0_errors += 1;
                    }
                }
                Ok(_) => {
                    put("server.tier0", label.clone(), t);
                    for _ in 0..2 {
                        tsvc.specialize_named(&k.name, &k.statics)
                            .map_err(err("tier0 hit"))?;
                    }
                    promotions += 1;
                    let (landed, t) = tracer.time("server.promote", si, rid, || {
                        let started = Instant::now();
                        loop {
                            let ts = tsvc.tier_stats();
                            if ts.queued == 0 && ts.promotions - tier_base >= promotions {
                                return Ok(());
                            }
                            if started.elapsed().as_secs() > 10 {
                                return Err(format!("probe promotion did not land: {ts:?}"));
                            }
                            std::thread::yield_now();
                        }
                    });
                    landed?;
                    put("server.promote", label.clone(), t / 1000.0);
                }
            }

            let (_, t) = tracer.time("server.write", si, rid, || svc.redefine(&k.name, &exts[si]));
            put("server.write", label.clone(), t);
            svc.specialize_named(&k.name, &k.statics)
                .map_err(err("refill"))?;

            // The refill ran on a thread of its own; an untimed ping lets
            // it end before the timed round trips.
            client.ping()?;
            let (pong, t) = tracer.time("net.ping", si, rid, || client.ping());
            pong?;
            put("net.ping", label.clone(), t);

            // A wire hit, then its parts measured on their own under the
            // same request id: handler round trip, frame codec, in-process
            // replay.
            let (t0, t1, t2, resp) = wire_read(&mut client, &k.spec_frame());
            let resp = resp?;
            trace_read(tracer, si, rid, (t0, t1, t2));
            let hit = |statics: &[Datum]| {
                svc.specialize_named(&k.name, statics)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            };
            let parts = wire_parts(
                tracer,
                &mut client,
                si,
                rid,
                k,
                ("server.hit", &hit),
                &image,
                &resp,
            )?;
            put("net.codec", label.clone(), parts.codec);
            put("net.self", label.clone(), us(t0, t2) - parts.replay);

            if r == 0 {
                let mut add = |name: &'static str, v: f64| counts.entry(name).or_default().push(v);
                add("net.resp_bytes", resp.len() as f64);
                add("pe.unfolds", stats.unfolds as f64);
                add("pe.memo_misses", stats.memo_misses as f64);
                add("pe.residual_defs", stats.residual_defs as f64);
                let profile = Arc::new(ExecProfile::new());
                run_image_profiled(
                    &image,
                    image.entry.as_str(),
                    &k.dynamic,
                    &Limits::none(),
                    &profile,
                )
                .map_err(err("profiled run"))?;
                add("vm.exec_instrs", profile.fetches() as f64);
            }
        }
        let rid = tracer.rid();
        let (g, t) = tracer.time("langs.grammar", 0, rid, || {
            grammar::parse(&set.grammar).map(|g| grammar::workload_source(&g))
        });
        g.map_err(err("grammar"))?;
        samples
            .entry(("langs.grammar", "grammar".to_string()))
            .or_default()
            .push(t);
    }
    drop(client);
    server.shutdown();

    let mut out = BTreeMap::new();
    let layer = |name: &str| -> Vec<f64> {
        samples
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| median(v))
            .collect()
    };
    for (span, metric) in [
        ("frontend.parse", "frontend.parse_us"),
        ("bta.cogen", "bta.cogen_us"),
        ("pe.stage", "pe.stage_us"),
        ("pe.walk", "pe.walk_us"),
        ("pe.genrun", "pe.genrun_us"),
        ("compiler.generic", "compiler.generic_us"),
        ("vm.encode", "vm.encode_us"),
        ("syntax.read", "syntax.read_us"),
        ("server.hit", "server.hit_us"),
        ("server.miss", "server.miss_us"),
        ("server.tier0", "server.tier0_us"),
        ("server.promote", "server.promote_ms"),
        ("server.write", "server.write_us"),
        ("net.ping", "net.ping_us"),
        ("net.codec", "net.codec_us"),
        ("net.self", "net.self_us"),
        ("langs.grammar", "langs.grammar_us"),
    ] {
        out.insert(metric, geomean(&layer(span)));
    }
    let ratios: Vec<f64> = layer("server.hit")
        .iter()
        .zip(layer("server.hit.noobs"))
        .map(|(on, off)| on / off)
        .collect();
    out.insert("obs.overhead_frac", geomean(&ratios) - 1.0);
    out.insert("server.tier0_errors", f64::from(tier0_errors));
    for (name, v) in counts {
        out.insert(name, v.iter().sum::<f64>() / v.len() as f64);
    }
    Ok(out)
}
