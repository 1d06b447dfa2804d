//! What a degraded cluster costs its survivors, over in-process loopback
//! shard servers (so the test can stop one and read the other's counters).

use std::thread;
use trajsearch_core::{IndexShard, PostingSource};
use trajsearch_distrib::{testdata, RemoteShards, ShardEndpoint};
use trajsearch_serve::{IndexShardSource, Server, ServerConfig, ServerHandle};

const ALPHABET: usize = 16;
const EPOCH: u64 = 5;

/// Shuts every server down when dropped (shutdown is idempotent).
struct ShutdownOnDrop(Vec<ServerHandle>);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        for handle in &self.0 {
            handle.shutdown();
        }
    }
}

/// With one of two shards down, a frequency lookup is **one** round trip
/// to the survivor and one degraded-log entry — not a fan-out to learn the
/// answer is incomplete and a second identical one to sum it.
#[test]
fn freq_with_a_dead_shard_costs_the_survivor_one_round_trip() {
    let store = testdata::store(40, 12, 11, ALPHABET);
    let shards: Vec<IndexShard> = (0..2)
        .map(|k| IndexShard::build(&store, ALPHABET, k, 2))
        .collect();
    let sources: Vec<IndexShardSource<'_>> = shards
        .iter()
        .map(|shard| IndexShardSource::new(shard, EPOCH))
        .collect();
    let servers: Vec<Server> = (0..2)
        .map(|_| Server::bind(ServerConfig::default()).expect("bind shard server"))
        .collect();
    let handles: Vec<_> = servers.iter().map(Server::handle).collect();
    let endpoints: Vec<ShardEndpoint> = handles
        .iter()
        .map(|h| ShardEndpoint::new(h.local_addr().to_string()))
        .collect();
    thread::scope(|scope| {
        // Dropped on every exit, so a failed assertion unwinds into the
        // scope's join instead of hanging it.
        let _guard = ShutdownOnDrop(handles.clone());
        let mut serving: Vec<_> = servers
            .into_iter()
            .zip(&sources)
            .map(|(server, source)| scope.spawn(move || server.serve_shard(source)))
            .collect();
        let remote = RemoteShards::connect(&endpoints).expect("connect cluster");
        let (q, uncached) = (3, 4);
        let whole = remote.freq(q);
        assert_eq!(
            whole,
            shards[0].freq(q) + shards[1].freq(q),
            "healthy: the sum over both shards"
        );

        // Stop shard 1 and wait until its connections are closed.
        handles[1].shutdown();
        serving
            .pop()
            .expect("shard 1's thread")
            .join()
            .expect("serve thread")
            .expect("serve ok");

        let completed = handles[0].metrics().completed;
        let degraded = remote.degraded_total();
        assert_eq!(
            remote.freq(uncached),
            shards[0].freq(uncached),
            "degraded: the survivor's share"
        );
        assert_eq!(handles[0].metrics().completed, completed + 1);
        assert_eq!(remote.degraded_total(), degraded + 1);
        // A complete answer cached earlier still needs no round trip.
        assert_eq!(remote.freq(q), whole);
        assert_eq!(handles[0].metrics().completed, completed + 1);
    });
}
