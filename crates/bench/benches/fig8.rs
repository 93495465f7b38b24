//! Fig. 8 — "Using RTCG for normal compilation": treat every input of the
//! interpreter as dynamic, so running the generating extension *is* an
//! ordinary compiler for the interpreter itself. Columns:
//!
//! * **BTA** — binding-time analysis + generating-extension construction;
//! * **Generate** — running the generating extension (object code out);
//! * **Compile** — the stock compiler on the same source, for comparison.
//!
//! (The paper's "Load" column measured loading+compiling the object-code
//! generator with the stock compiler; our generating extensions are
//! in-memory closures, so there is nothing to load — see EXPERIMENTS.md.)

use std::hint::black_box;
use std::time::Instant;
use two4one::{compile_source_text, with_stack, Division};
use two4one_bench::harness::Criterion;
use two4one_bench::subjects;
use two4one_bench::{criterion_group, criterion_main};

fn bench_normal_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_rtcg_as_compiler");
    group.sample_size(20);
    for subject in subjects() {
        let pgg = subject.pgg();
        let parsed = subject.parsed();
        let entry: &'static str = subject.entry;
        let src: &'static str = subject.interp_src;

        // BTA column.
        let p = parsed.clone();
        let pg = pgg.clone();
        group.bench_function(format!("{}/bta", subject.name), move |b| {
            b.iter_custom(|iters| {
                let p = p.clone();
                let pg = pg.clone();
                with_stack(move || {
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        black_box(
                            pg.cogen(&p, entry, &Division::all_dynamic(2))
                                .expect("cogen")
                                .annotated()
                                .map_or(0, |a| a.defs.len()),
                        );
                    }
                    t0.elapsed()
                })
            })
        });

        // Generate column.
        let genext = subject.genext_all_dynamic();
        group.bench_function(format!("{}/generate", subject.name), move |b| {
            b.iter_custom(|iters| {
                let g = genext.clone();
                with_stack(move || {
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        black_box(g.specialize_object(&[]).expect("generate").code_size());
                    }
                    t0.elapsed()
                })
            })
        });

        // Compile column (stock compiler from source text).
        group.bench_function(format!("{}/compile-stock", subject.name), move |b| {
            b.iter_custom(|iters| {
                with_stack(move || {
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        black_box(
                            compile_source_text(src, entry)
                                .expect("stock compile")
                                .code_size(),
                        );
                    }
                    t0.elapsed()
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_normal_compilation);
criterion_main!(benches);
