//! Traced query: attach a `trace_id` to a wire query, fetch its per-phase
//! timeline back through the `trace` request, and print a flame-style
//! breakdown — queue wait, filter, lookups and verification as nested
//! bars, plus the Prometheus exposition the same server renders.
//!
//! The tracing contract on display: a traced query's matches are
//! byte-identical to the untraced run (checked below), the timeline
//! nests engine phases under the root `query` span, and an id the server
//! never saw answers with an empty list instead of an error.
//!
//! ```sh
//! cargo run --release --example traced_query
//! ```

use rnet::{CityParams, NetworkKind};
use std::collections::HashMap;
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, Query, VerifyMode};
use trajsearch_serve::{Client, Server, ServerConfig, WireSpan};
use wed::models::Edr;

/// Print one timeline as a flame-style tree: indentation by span depth,
/// a bar proportional to each span's share of the trace wall time.
fn print_flame(spans: &[WireSpan], wall_ns: u64) {
    const BAR: usize = 40;
    let depth_of = |span: &WireSpan| {
        let by_id: HashMap<u64, &WireSpan> = spans.iter().map(|s| (s.span_id, s)).collect();
        let mut depth = 0;
        let mut cursor = span.parent_id;
        while let Some(parent) = by_id.get(&cursor) {
            depth += 1;
            cursor = parent.parent_id;
        }
        depth
    };
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    for span in spans {
        let share = span.dur_ns as f64 / wall_ns.max(1) as f64;
        let filled = ((share * BAR as f64).round() as usize).min(BAR);
        println!(
            "  {:>8.1}us  {:indent$}{:<12} {}{} {:>5.1}%",
            (span.start_ns - t0) as f64 / 1e3,
            "",
            span.name,
            "█".repeat(filled.max(1)),
            " ".repeat(BAR - filled.max(1)),
            100.0 * share,
            indent = 2 * depth_of(span),
        );
    }
}

fn main() {
    // A synthetic city, a trip database, and an EDR engine over it.
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(42).generate());
    let store = TripConfig::default()
        .count(400)
        .lengths(30, 80)
        .seed(11)
        .generate(&net);
    let model = Edr::new(net.clone(), 100.0);
    let engine = EngineBuilder::new(&model, &store, net.num_vertices()).build();

    let server = Server::bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let handle = server.handle();
    println!(
        "serving {} trajectories at {}",
        store.len(),
        handle.local_addr()
    );

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&engine));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        // A real query cut from a stored trip, run untraced then traced.
        let t = store.get(17);
        let q = t.path()[0..=t.len().min(40) - 1].to_vec();
        let tau = (0.15 * q.len() as f64).max(1.0);
        let query = Query::threshold(q, tau)
            .verify(VerifyMode::Trie)
            .build()
            .expect("valid query");

        let untraced = client.query(&query).expect("untraced");
        const TRACE_ID: u64 = 0xCAFE;
        let traced = client.query_traced(&query, TRACE_ID).expect("traced");
        assert_eq!(
            traced.matches, untraced.matches,
            "tracing must not change the answer"
        );
        println!(
            "query answered: {} matches, {} candidates (identical with and without tracing)",
            traced.matches.len(),
            traced.stats.candidates
        );

        // Fetch the timeline back over the same connection.
        let entries = client.trace(Some(TRACE_ID)).expect("trace fetch");
        for entry in &entries {
            println!(
                "\ntrace {:#x}: {} spans over {:.1}us",
                entry.trace_id,
                entry.spans.len(),
                entry.wall_ns as f64 / 1e3
            );
            print_flame(&entry.spans, entry.wall_ns);
        }
        assert!(
            client.trace(Some(TRACE_ID + 1)).expect("fetch").is_empty(),
            "unknown ids answer empty, not an error"
        );

        // The same server renders Prometheus text exposition.
        let text = client.metrics_text().expect("metrics_text");
        println!("\nmetrics_text excerpt:");
        for line in text
            .lines()
            .filter(|l| l.starts_with("trajsearch_queries") || l.contains("wall_ns_count"))
        {
            println!("  {line}");
        }

        handle.shutdown();
        serving.join().expect("join").expect("serve ok");
    });
    println!("\ndone: traced and untraced answers matched byte-for-byte");
}
