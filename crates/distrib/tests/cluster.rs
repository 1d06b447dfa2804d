//! Multi-process cluster suite: the PR-3 equivalence bar, enforced against
//! *real* shard-server processes on loopback sockets.
//!
//! * **Placement equivalence** — the same mixed workload (threshold in
//!   every verify mode, top-k, temporal filter, temporal postings,
//!   DTW, fallback scan) answered through [`RemoteShards`]
//!   over a 3-process cluster is byte-identical (matches and every
//!   deterministic stats counter) to in-process `Single` and `Sharded(3)`
//!   — and independent of the order the endpoints are listed in.
//! * **Full topology** — 3 shard servers + 1 coordinator process; a
//!   client speaking the ordinary query protocol gets byte-identical
//!   responses to in-process `run_batch`.
//! * **Degradation** — killing one shard process mid-conversation turns
//!   subsequent answers into typed `degraded` replies naming the dead
//!   shard, within the RPC deadline — no hang, no panic — and the
//!   coordinator keeps serving.
//!
//! Every spawned process is killed on drop (guards), so a failing
//! assertion can never leak a cluster.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use trajsearch_core::{BatchOptions, EngineBuilder, IndexLayout, Query, Response};
use trajsearch_distrib::{testdata, RemoteShards, ShardEndpoint};
use trajsearch_serve::{Client, QueryOutcome};
use wed::models::Lev;

/// One deterministic dataset shared (by regeneration) with every spawned
/// process; small enough that the fallback-scan queries stay fast.
const TRAJECTORIES: usize = 90;
const LEN: usize = 16;
const SEED: u64 = 7;
const ALPHABET: usize = 32;
const NUM_SHARDS: usize = 3;
const EPOCH: u64 = 1;

/// Kills every child on drop — assertion failures cannot leak processes.
struct ClusterGuard(Vec<Child>);

impl ClusterGuard {
    fn kill_one(&mut self, index: usize) {
        let child = &mut self.0[index];
        child.kill().expect("kill shard");
        child.wait().expect("reap shard");
    }
}

impl Drop for ClusterGuard {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns a binary and reads its `LISTENING <addr>` line.
fn spawn_listening(mut cmd: Command) -> (Child, SocketAddr) {
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn cluster process");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("expected LISTENING line, got {line:?}"))
        .parse()
        .expect("parse listen address");
    (child, addr)
}

fn spawn_shard(shard: usize) -> (Child, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_shard_server"));
    cmd.args([
        "--shard",
        &shard.to_string(),
        "--num-shards",
        &NUM_SHARDS.to_string(),
        "--trajectories",
        &TRAJECTORIES.to_string(),
        "--len",
        &LEN.to_string(),
        "--seed",
        &SEED.to_string(),
        "--alphabet",
        &ALPHABET.to_string(),
        "--epoch",
        &EPOCH.to_string(),
    ]);
    spawn_listening(cmd)
}

fn spawn_cluster() -> (ClusterGuard, Vec<SocketAddr>) {
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..NUM_SHARDS {
        let (child, addr) = spawn_shard(shard);
        children.push(child);
        addrs.push(addr);
    }
    (ClusterGuard(children), addrs)
}

fn spawn_coordinator(shard_addrs: &[SocketAddr]) -> (Child, SocketAddr) {
    let shards = shard_addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_coordinator"));
    cmd.args([
        "--shards",
        &shards,
        "--trajectories",
        &TRAJECTORIES.to_string(),
        "--len",
        &LEN.to_string(),
        "--seed",
        &SEED.to_string(),
        "--alphabet",
        &ALPHABET.to_string(),
        "--workers",
        "1",
    ]);
    spawn_listening(cmd)
}

/// Byte-identical in the sense the wire preserves: matches exactly equal
/// and every deterministic stats counter equal (timings excluded).
fn assert_equivalent(got: &Response, want: &Response, ctx: &str) {
    assert_eq!(got.matches, want.matches, "{ctx}: matches diverged");
    let (g, w) = (&got.stats, &want.stats);
    assert_eq!(g.candidates, w.candidates, "{ctx}: candidates");
    assert_eq!(
        g.candidates_after_temporal, w.candidates_after_temporal,
        "{ctx}: candidates_after_temporal"
    );
    assert_eq!(
        g.candidates_deduped, w.candidates_deduped,
        "{ctx}: candidates_deduped"
    );
    assert_eq!(g.tsubseq_len, w.tsubseq_len, "{ctx}: tsubseq_len");
    assert_eq!(g.fallback, w.fallback, "{ctx}: fallback");
    assert_eq!(g.sw_columns, w.sw_columns, "{ctx}: sw_columns");
    assert_eq!(g.verify_cost, w.verify_cost, "{ctx}: verify_cost");
    assert_eq!(g.results, w.results, "{ctx}: results");
}

#[test]
fn remote_shards_match_single_and_sharded_at_any_placement() {
    let store = testdata::store(TRAJECTORIES, LEN, SEED, ALPHABET);
    let workload = testdata::workload(&store, 21, 0xB0B, ALPHABET);

    let single = EngineBuilder::new(Lev, &store, ALPHABET)
        .temporal_postings(true)
        .build();
    let sharded = EngineBuilder::new(Lev, &store, ALPHABET)
        .layout(IndexLayout::Sharded(NUM_SHARDS))
        .temporal_postings(true)
        .build();
    let want_single = single
        .run_batch(&workload, BatchOptions::with_threads(2))
        .expect("single batch");
    let want_sharded = sharded
        .run_batch(&workload, BatchOptions::with_threads(2))
        .expect("sharded batch");
    for (i, (s, h)) in want_single
        .responses
        .iter()
        .zip(&want_sharded.responses)
        .enumerate()
    {
        assert_equivalent(s, h, &format!("single vs sharded, query {i}"));
    }

    let (_guard, addrs) = spawn_cluster();
    // Two placements of the same shards: endpoint order must not matter
    // (shards identify themselves via shard_info).
    for (placement, order) in [("in order", [0, 1, 2]), ("rotated", [2, 0, 1])] {
        let endpoints: Vec<ShardEndpoint> = order
            .iter()
            .map(|&i| ShardEndpoint::new(addrs[i].to_string()))
            .collect();
        let remote = RemoteShards::connect(&endpoints, &store).expect("connect cluster");
        assert_eq!(remote.num_shards(), NUM_SHARDS);
        let engine = EngineBuilder::new(Lev, &store, ALPHABET).build_with(remote);
        let got = engine
            .run_batch(&workload, BatchOptions::with_threads(2))
            .expect("remote batch");
        for (i, (g, w)) in got.responses.iter().zip(&want_single.responses).enumerate() {
            assert_equivalent(g, w, &format!("remote ({placement}) vs single, query {i}"));
        }
        assert_eq!(
            engine.index().degraded_total(),
            0,
            "healthy cluster must not degrade ({placement})"
        );
    }
}

#[test]
fn coordinator_process_answers_byte_identically_over_the_wire() {
    let store = testdata::store(TRAJECTORIES, LEN, SEED, ALPHABET);
    let workload = testdata::workload(&store, 14, 0xC0FFEE, ALPHABET);
    let want = EngineBuilder::new(Lev, &store, ALPHABET)
        .temporal_postings(true)
        .build()
        .run_batch(&workload, BatchOptions::with_threads(2))
        .expect("in-process reference");

    let (mut guard, addrs) = spawn_cluster();
    let (coord, coord_addr) = spawn_coordinator(&addrs);
    guard.0.push(coord);

    let mut client = Client::connect(coord_addr).expect("connect coordinator");
    let outcomes = client.query_batch(&workload).expect("transport ok");
    assert_eq!(outcomes.len(), workload.len());
    for (i, (outcome, want)) in outcomes.iter().zip(&want.responses).enumerate() {
        let got = outcome
            .response()
            .unwrap_or_else(|| panic!("query {i} not answered cleanly: {outcome:?}"));
        assert_equivalent(got, want, &format!("coordinator query {i}"));
    }
    let stats = client.stats().expect("stats over the wire");
    assert_eq!(stats.completed, workload.len() as u64);
    assert_eq!(stats.degraded, 0);
}

#[test]
fn traced_query_stitches_one_timeline_across_coordinator_and_shards() {
    let (mut guard, addrs) = spawn_cluster();
    let (coord, coord_addr) = spawn_coordinator(&addrs);
    guard.0.push(coord);
    let mut client = Client::connect(coord_addr).expect("connect coordinator");

    // Fresh symbols, so the coordinator's caches cannot answer without
    // fanning the postings fetch out to the shard servers.
    const TRACE_ID: u64 = 0xBEEF;
    let query = Query::threshold(vec![3, 4, 5], 1.5).build().unwrap();
    let response = client
        .query_traced(&query, TRACE_ID)
        .expect("traced query over the coordinator");
    assert_eq!(
        response.matches,
        client.query(&query).expect("untraced repeat").matches,
        "tracing must not change the answer"
    );

    // Coordinator-side timeline: queue wait, the engine's phases, and one
    // shard_rpc span per shard the fan-out touched.
    let entries = client.trace(Some(TRACE_ID)).expect("coordinator trace");
    assert_eq!(entries.len(), 1, "one entry per process");
    let coord_entry = &entries[0];
    assert_eq!(coord_entry.trace_id, TRACE_ID);
    let coord_names: Vec<&str> = coord_entry.spans.iter().map(|s| s.name.as_str()).collect();
    for phase in ["queue_wait", "query", "filter", "verify", "shard_rpc"] {
        assert!(
            coord_names.contains(&phase),
            "coordinator timeline missing {phase}: {coord_names:?}"
        );
    }
    let rpc_shards: std::collections::BTreeSet<u64> = coord_entry
        .spans
        .iter()
        .filter(|s| s.name == "shard_rpc")
        .map(|s| s.detail)
        .collect();
    assert_eq!(
        rpc_shards,
        (0..NUM_SHARDS as u64).collect(),
        "the fan-out bracketed every shard"
    );

    // Shard-server side: each process retained `rpc_serve` spans under the
    // SAME trace id — the cross-process half of the stitched timeline.
    for (k, addr) in addrs.iter().enumerate() {
        let mut shard_client = Client::connect(*addr).expect("connect shard");
        let entries = shard_client.trace(Some(TRACE_ID)).expect("shard trace");
        assert_eq!(entries.len(), 1, "shard {k} retained the trace");
        let entry = &entries[0];
        assert_eq!(entry.trace_id, TRACE_ID, "shard {k} shares the trace id");
        assert!(
            entry.spans.iter().all(|s| s.name == "rpc_serve"),
            "shard-side spans are serve intervals: {:?}",
            entry.spans
        );
        assert!(
            !entry.spans.is_empty(),
            "shard {k} served at least one traced RPC"
        );
    }

    // An untraced query leaves no new timeline anywhere.
    let other = Query::threshold(vec![7, 8], 1.0).build().unwrap();
    client.query(&other).expect("untraced query");
    assert!(
        client.trace(Some(TRACE_ID + 1)).expect("empty").is_empty(),
        "no spurious traces"
    );
}

#[test]
fn killing_a_shard_yields_typed_degraded_replies_and_service_survives() {
    let (mut guard, addrs) = spawn_cluster();
    let (coord, coord_addr) = spawn_coordinator(&addrs);
    guard.0.push(coord);
    let mut client = Client::connect(coord_addr).expect("connect coordinator");

    // Healthy first: a clean answer proves the conversation works.
    let probe = |sym: u32| {
        Query::threshold(vec![sym, sym + 1, sym + 2], 1.5)
            .build()
            .unwrap()
    };
    let healthy = client
        .query_batch(&[probe(1)])
        .expect("transport ok")
        .remove(0);
    assert!(
        matches!(healthy, QueryOutcome::Answered(_)),
        "healthy cluster: {healthy:?}"
    );

    // Kill shard 1 (guard index 1), then query with *fresh* symbols so the
    // coordinator's caches cannot answer without touching the dead shard.
    guard.kill_one(1);
    let t0 = Instant::now();
    let outcome = client
        .query_batch(&[probe(9)])
        .expect("transport stays healthy")
        .remove(0);
    let elapsed = t0.elapsed();
    match &outcome {
        QueryOutcome::Degraded { degraded, response } => {
            assert!(
                degraded.missing_shards.contains(&1),
                "must name the dead shard: {degraded}"
            );
            assert!(
                response.is_some(),
                "the partial answer rides along with the degraded envelope"
            );
        }
        other => panic!("expected a typed degraded reply, got {other:?}"),
    }
    // Bounded by the RPC deadline (10s default) with generous headroom —
    // a SIGKILLed peer fails the read immediately, not at the deadline.
    assert!(
        elapsed < Duration::from_secs(30),
        "degraded reply took {elapsed:?}"
    );

    // The coordinator keeps serving: later queries still get answers
    // (degraded while the shard stays dead, but typed and prompt).
    let later = client
        .query_batch(&[probe(12)])
        .expect("transport ok")
        .remove(0);
    assert!(
        matches!(later, QueryOutcome::Degraded { .. }),
        "shard still dead, replies stay typed: {later:?}"
    );
    let stats = client.stats().expect("stats");
    assert!(stats.degraded >= 2, "got {}", stats.degraded);
    assert_eq!(stats.completed, 1);
}
