//! Venue-size scaling sweep: builds mega venues, hosts each on one engine,
//! and reports throughput, candidate-set fraction, cold-start phases and
//! memory. See `ikrq_bench::scale` for what each column means.
//!
//! ```text
//! scale [--sizes 100,1000,10000] [--queries 20] [--seed 42] [--csv] [--persist]
//! ```
//!
//! `--persist` additionally enforces the serving criteria on every point
//! of at least 10⁴ partitions: adopting the persisted index must be at
//! least 5× faster than building it fresh, adopting the v2 columnar
//! document body (decode + adopt) must be at least 5× faster than the
//! v1-style record rebuild. Without it too, the sweep exits non-zero if a
//! loaded engine's responses differ from the in-memory engine's.

use ikrq_bench::scale::{markdown_table, run_scale_sweep, ScaleSweepConfig};

fn main() {
    let mut config = ScaleSweepConfig::default();
    let mut csv = false;
    let mut persist = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sizes" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage("--sizes needs a value"));
                config.sizes = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad size {s:?}")))
                    })
                    .collect();
            }
            "--queries" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage("--queries needs a value"));
                config.queries_per_size = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad query count {value:?}")));
            }
            "--seed" => {
                let value = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                config.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {value:?}")));
            }
            "--csv" => csv = true,
            "--persist" => persist = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if config.sizes.is_empty() || config.queries_per_size == 0 {
        usage("sizes and queries must be non-empty");
    }

    eprintln!(
        "scaling sweep: sizes {:?}, {} queries per size, seed {}",
        config.sizes, config.queries_per_size, config.seed
    );
    let points = run_scale_sweep(&config);
    if csv {
        println!(
            "partitions,doors,generate_ms,space_build_ms,index_build_ms,save_ms,load_ms,\
             index_load_ms,doc_decode_ms,model_adopt_ms,doc_rebuild_ms,\
             index_bytes,koe_qps,candidate_fraction,peak_bytes,\
             koe_star_qps,toe_qps,toe_budget_exhausted,peak_rss_kib,loaded_identical,\
             columnar_adopted,columnar_identical"
        );
        for p in &points {
            println!(
                "{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{:.2},{:.6},{},{:.2},{:.2},{},{},{},{},{}",
                p.partitions,
                p.doors,
                p.generate_ms,
                p.space_build_ms,
                p.index_build_ms,
                p.save_ms,
                p.load_ms,
                p.index_load_ms,
                p.doc_decode_ms,
                p.model_adopt_ms,
                p.doc_rebuild_ms,
                p.index_bytes,
                p.koe_qps,
                p.candidate_fraction,
                p.peak_memory,
                p.koe_star_qps,
                p.toe_qps,
                p.toe_budget_exhausted,
                p.peak_rss_kib,
                p.loaded_identical,
                p.columnar_adopted,
                p.columnar_identical,
            );
        }
    } else {
        print!("{}", markdown_table(&points));
    }
    if points.iter().any(|p| !p.loaded_identical) {
        eprintln!("ERROR: record-rebuilt and in-memory responses diverged");
        std::process::exit(1);
    }
    if points.iter().any(|p| !p.columnar_identical) {
        eprintln!("ERROR: columnar-loaded and in-memory responses diverged");
        std::process::exit(1);
    }
    if persist {
        let mut failed = false;
        for p in points.iter().filter(|p| p.partitions >= 10_000) {
            let ratio = p.index_build_ms / p.index_load_ms.max(1e-9);
            eprintln!(
                "persist criterion at {} partitions: build {:.2} ms vs load {:.2} ms ({ratio:.1}x)",
                p.partitions, p.index_build_ms, p.index_load_ms
            );
            if p.index_build_ms < 5.0 * p.index_load_ms {
                eprintln!(
                    "ERROR: persisted-index load must be at least 5x faster than a fresh build"
                );
                failed = true;
            }
            let adopt_ms = p.doc_decode_ms + p.model_adopt_ms;
            let doc_ratio = p.doc_rebuild_ms / adopt_ms.max(1e-9);
            eprintln!(
                "document criterion at {} partitions: rebuild {:.2} ms vs adopt {:.2} ms ({doc_ratio:.1}x)",
                p.partitions, p.doc_rebuild_ms, adopt_ms
            );
            if !p.columnar_adopted {
                eprintln!("ERROR: a v2 cold load degraded to a record rebuild");
                failed = true;
            }
            if p.doc_rebuild_ms < 5.0 * adopt_ms {
                eprintln!(
                    "ERROR: columnar document adoption must be at least 5x faster than a record rebuild"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}\n");
    }
    eprintln!(
        "usage: scale [--sizes 100,1000,10000] [--queries 20] [--seed 42] [--csv] [--persist]\n\
         \n\
         Sweeps venue sizes, timing KoE, KoE* and budgeted ToE on mega venues\n\
         and checking that loaded venue files answer as in memory. --persist\n\
         additionally enforces the >=5x persisted-index load speedup and the\n\
         >=5x columnar document adoption speedup on points of at least 10^4\n\
         partitions."
    );
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}
