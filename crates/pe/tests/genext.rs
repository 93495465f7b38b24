//! Walker / gen-ext machine equivalence: both consumers of the staged IR
//! must produce **bit-identical** residual programs and equal stats — on
//! clean runs, across graceful-fallback limit sweeps, and in strict mode
//! (where they must fail with the same typed error).

use two4one_anf::build::SourceBuilder;
use two4one_bta::{bta_with, Division, Options};
use two4one_compiler::ObjectBuilder;
use two4one_pe::walk::specialize_staged;
use two4one_pe::{run_genext, stage, SpecOptions};
use two4one_syntax::acs::{CallPolicy, BT};
use two4one_syntax::datum::Datum;
use two4one_syntax::limits::Limits;
use two4one_syntax::symbol::Symbol;

/// A workload: source text, entry, division, static arguments, and
/// optional call-policy overrides.
struct Workload {
    name: &'static str,
    src: &'static str,
    entry: &'static str,
    div: Vec<BT>,
    statics: Vec<Datum>,
    memoize: Vec<&'static str>,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "power-unfolded",
            src: "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
            entry: "power",
            div: vec![BT::Dynamic, BT::Static],
            statics: vec![Datum::Int(9)],
            memoize: vec![],
        },
        Workload {
            name: "join-points",
            src: "(define (f a b c d)
                    (+ (if a 1 2) (+ (if b 3 4) (+ (if c 5 6) (if d 7 8)))))",
            entry: "f",
            div: vec![BT::Dynamic; 4],
            statics: vec![],
            memoize: vec![],
        },
        Workload {
            name: "memoized-higher-order",
            src: "(define (apply-n f n x) (if (= n 0) x (apply-n f (- n 1) (f x))))
                  (define (inc v) (+ v 1))
                  (define (dbl v) (* v 2))
                  (define (main x) (+ (apply-n inc 3 x) (apply-n dbl 2 x)))",
            entry: "main",
            div: vec![BT::Dynamic],
            statics: vec![],
            memoize: vec!["apply-n"],
        },
        Workload {
            name: "fnref-lifting",
            src: "(define (step x) (+ x 1))
                  (define (main) (lambda (y) (step y)))",
            entry: "main",
            div: vec![],
            statics: vec![],
            memoize: vec![],
        },
        Workload {
            name: "faulting-static-prim",
            src: "(define (f d) (if d (car '()) 'safe))",
            entry: "f",
            div: vec![BT::Dynamic],
            statics: vec![],
            memoize: vec![],
        },
        Workload {
            name: "lambda-rebinding",
            src: "(define (use2 f x) (eq? f f))
                  (define (main n x) (use2 (lambda (y) (+ y x)) n))",
            entry: "main",
            div: vec![BT::Dynamic, BT::Dynamic],
            statics: vec![],
            memoize: vec![],
        },
        Workload {
            name: "memoized-recursion-dynamic-n",
            src: "(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc acc))))
                  (define (main n) (loop n 1))",
            entry: "main",
            div: vec![BT::Dynamic],
            statics: vec![],
            memoize: vec!["loop"],
        },
    ]
}

fn annotate(w: &Workload) -> two4one_syntax::acs::AProgram {
    let p = two4one_frontend::frontend(w.src).unwrap();
    let mut opts = Options::default();
    for m in &w.memoize {
        opts.policy_overrides
            .insert(Symbol::new(m), CallPolicy::Memoize);
    }
    bta_with(&p, w.entry, &Division::new(w.div.iter().copied()), &opts).unwrap()
}

/// Runs a workload through both engines under `spec_opts` and asserts
/// bit-identical object images, identical source renderings (the readable
/// diff when something drifts), and equal stats — or the same error.
fn assert_equivalent(w: &Workload, spec_opts: &SpecOptions, ctx: &str) {
    let aprog = annotate(w);
    let staged = stage(&aprog).unwrap();
    let entry = Symbol::new(w.entry);

    // Source backend first: a divergence shows up as a readable text diff.
    let walker_src = specialize_staged(
        &staged,
        &entry,
        &w.statics,
        SourceBuilder::new(),
        spec_opts,
        spec_opts.limits.deadline(),
    );
    let genext_src = run_genext(
        &staged,
        &entry,
        &w.statics,
        SourceBuilder::new(),
        spec_opts,
        spec_opts.limits.deadline(),
    );
    match (walker_src, genext_src) {
        (Ok((wp, ws)), Ok((gp, gs))) => {
            assert_eq!(
                wp.to_source(),
                gp.to_source(),
                "[{}/{ctx}] residual source drift",
                w.name
            );
            assert_eq!(ws, gs, "[{}/{ctx}] stats drift (source backend)", w.name);
        }
        (Err(we), Err(ge)) => {
            assert_eq!(we, ge, "[{}/{ctx}] error drift (source backend)", w.name);
            return; // both engines reject: nothing further to compare
        }
        (w_res, g_res) => panic!(
            "[{}/{ctx}] one engine failed: walker={:?} genext={:?}",
            w.name,
            w_res.map(|(p, _)| p.to_source()),
            g_res.map(|(p, _)| p.to_source()),
        ),
    }

    // Object backend: the images must be bit-identical.
    let (wimg, wstats) = specialize_staged(
        &staged,
        &entry,
        &w.statics,
        ObjectBuilder::new(),
        spec_opts,
        spec_opts.limits.deadline(),
    )
    .unwrap();
    let (gimg, gstats) = run_genext(
        &staged,
        &entry,
        &w.statics,
        ObjectBuilder::new(),
        spec_opts,
        spec_opts.limits.deadline(),
    )
    .unwrap();
    assert_eq!(
        wstats, gstats,
        "[{}/{ctx}] stats drift (object backend)",
        w.name
    );
    let wbytes = two4one_vm::encode_image(&wimg.unwrap());
    let gbytes = two4one_vm::encode_image(&gimg.unwrap());
    assert_eq!(
        wbytes, gbytes,
        "[{}/{ctx}] object image not bit-identical",
        w.name
    );
}

/// Limits with the depth guard effectively off: the walker's `max_depth`
/// protects its Rust stack, which the iterative machine does not have, so
/// equivalence sweeps keep it out of the way.
fn deep_limits() -> Limits {
    Limits::default().with_max_depth(usize::MAX)
}

#[test]
fn engines_agree_on_clean_runs() {
    let opts = SpecOptions {
        limits: deep_limits(),
        fallback: true,
    };
    for w in &workloads() {
        assert_equivalent(w, &opts, "clean");
    }
}

#[test]
fn engines_agree_across_unfold_fuel_sweep() {
    // Every fuel value from starvation to plenty: exercises guard replay,
    // generic fallback bodies, and fallback-kind classification.
    for fuel in 0..14u64 {
        let opts = SpecOptions {
            limits: deep_limits().with_unfold_fuel(fuel),
            fallback: true,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("fuel={fuel}"));
        }
    }
}

#[test]
fn engines_agree_across_memo_cap_sweep() {
    for cap in 0..5usize {
        let opts = SpecOptions {
            limits: deep_limits().with_memo_cap(cap),
            fallback: true,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("memo_cap={cap}"));
        }
    }
}

#[test]
fn engines_agree_across_code_cap_sweep() {
    for cap in [1usize, 2, 4, 8, 16, 64, 256] {
        let opts = SpecOptions {
            limits: deep_limits().with_code_cap(cap),
            fallback: true,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("code_cap={cap}"));
        }
    }
}

#[test]
fn engines_agree_in_strict_mode() {
    // With fallback off, limit overruns must abort with the *same* typed
    // error from both engines.
    for fuel in [0u64, 1, 3, 5] {
        let opts = SpecOptions {
            limits: deep_limits().with_unfold_fuel(fuel),
            fallback: false,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("strict-fuel={fuel}"));
        }
    }
    for cap in [0usize, 1, 2] {
        let opts = SpecOptions {
            limits: deep_limits().with_memo_cap(cap),
            fallback: false,
        };
        for w in &workloads() {
            assert_equivalent(w, &opts, &format!("strict-memo={cap}"));
        }
    }
}

#[test]
fn fallback_classification_matches_on_limit_hits() {
    // Starve the unfolding workload of fuel: both engines must degrade
    // (not abort), classify the first cause identically, and still agree
    // on the residual image.
    let w = &workloads()[0]; // power-unfolded
    let opts = SpecOptions {
        limits: deep_limits().with_unfold_fuel(1),
        fallback: true,
    };
    let aprog = annotate(w);
    let staged = stage(&aprog).unwrap();
    let entry = Symbol::new(w.entry);
    let (_, stats) = run_genext(
        &staged,
        &entry,
        &w.statics,
        SourceBuilder::new(),
        &opts,
        opts.limits.deadline(),
    )
    .unwrap();
    assert!(stats.degraded(), "{stats:?}");
    assert!(stats.fallback_kind.is_some(), "{stats:?}");
    assert_equivalent(w, &opts, "classification");
}
