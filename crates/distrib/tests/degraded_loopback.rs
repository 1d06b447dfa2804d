//! What a degraded cluster costs its survivors, and what a lying shard
//! gets, over in-process loopback shard servers (so the test can stop one,
//! read the other's counters, or serve a doctored shard).

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use trajsearch_core::{
    Deadline, EngineBuilder, IndexShard, Posting, PostingSource, Query, RemoteSpec,
    TemporalConstraint, TimeInterval,
};
use trajsearch_distrib::{testdata, Coordinator, DistribError, RemoteShards, ShardEndpoint};
use trajsearch_serve::{
    Handled, IndexShardSource, QueryHandler, Server, ServerConfig, ServerHandle, ShardInfo,
    ShardSource,
};
use wed::models::Lev;
use wed::Sym;

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

/// Frequencies come from the coordinator's store, not from the shards:
/// with one of two shards down, `freq` still answers the whole cluster's
/// count, sends nothing to the survivor and degrades nothing.
#[test]
fn freq_never_touches_the_network() {
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
        let remote = RemoteShards::connect(&endpoints, &store).expect("connect cluster");
        let whole = |q: Sym| (shards[0].postings(q).len() + shards[1].postings(q).len()) as u32;

        // Stop shard 1 and wait until its connections are closed.
        handles[1].shutdown();
        serving
            .pop()
            .expect("shard 1's thread")
            .join()
            .expect("serve thread")
            .expect("serve ok");

        let completed = handles[0].metrics().completed;
        for q in 0..ALPHABET as Sym {
            assert_eq!(remote.freq(q), whole(q), "symbol {q}");
        }
        assert!((0..ALPHABET as Sym).any(|q| !shards[1].postings(q).is_empty()));
        assert_eq!(remote.freq(ALPHABET as Sym), 0, "past the alphabet");
        assert_eq!(handles[0].metrics().completed, completed);
        assert_eq!(remote.degraded_total(), 0);
    });
}

/// How the lying shard of [`a_lying_shard_degrades_the_query_it_lied_to`]
/// lies.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lie {
    /// The first postings it sends name trajectory 1 000 000.
    Id,
    /// The first postings it sends hold a position past their trajectory.
    Position,
    /// It claims one posting more than its share of the store holds.
    TotalPostings,
    /// It claims a larger alphabet than the coordinator's.
    Alphabet,
}

/// An honest shard source that lies once, in the way `lie` says.
struct Liar<'a> {
    honest: IndexShardSource<'a>,
    lie: Lie,
    told: AtomicBool,
}

impl ShardSource for Liar<'_> {
    fn info(&self) -> ShardInfo {
        let mut info = self.honest.info();
        match self.lie {
            Lie::Alphabet => info.alphabet_size += 1,
            Lie::TotalPostings => info.total_postings += 1,
            _ => {}
        }
        info
    }

    fn postings(&self, syms: &[Sym]) -> Vec<Vec<Posting>> {
        let mut lists = self.honest.postings(syms);
        if let Some(posting) = lists.iter_mut().flatten().next() {
            match self.lie {
                Lie::Id if !self.told.swap(true, Ordering::SeqCst) => posting.0 = 1_000_000,
                Lie::Position if !self.told.swap(true, Ordering::SeqCst) => posting.1 = 1_000,
                _ => {}
            }
        }
        lists
    }
}

/// A shard that sends a posting outside its own trajectories degrades the
/// query it lied to instead of panicking the coordinator, and nothing it
/// sent is cached: the next query gets the honest list and a complete
/// answer. By-departure (temporal postings) queries read the same checked
/// lists. A lying posting count or alphabet fails the connect.
#[test]
fn a_lying_shard_degrades_the_query_it_lied_to() {
    let store = testdata::store(40, 12, 11, ALPHABET);
    let shards: Vec<IndexShard> = (0..2)
        .map(|k| IndexShard::build(&store, ALPHABET, k, 2))
        .collect();
    // One symbol of trajectory 1, which shard 1 holds: the plan fetches
    // that symbol's list from both shards.
    let pattern = vec![store.get(1).path()[3]];
    let plain = Query::threshold(pattern.clone(), 1.0).build().unwrap();
    let temporal = Query::threshold(pattern, 1.0)
        .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 150.0)))
        .temporal_postings(true)
        .build()
        .unwrap();
    let want_plain = EngineBuilder::new(Lev, &store, ALPHABET)
        .build()
        .run(&plain)
        .expect("in-process run");
    let want_temporal = EngineBuilder::new(Lev, &store, ALPHABET)
        .temporal_postings(true)
        .build()
        .run(&temporal)
        .expect("in-process run");
    for want in [&want_plain, &want_temporal] {
        assert!(want.matches.iter().any(|m| m.id % 2 == 1));
    }
    assert!(want_temporal.matches.len() < want_plain.matches.len());

    for (lie, query, want) in [
        (Lie::Id, &plain, &want_plain),
        (Lie::Id, &temporal, &want_temporal),
        (Lie::Position, &plain, &want_plain),
        (Lie::Position, &temporal, &want_temporal),
        (Lie::TotalPostings, &plain, &want_plain),
        (Lie::Alphabet, &plain, &want_plain),
    ] {
        let case = format!("{lie:?}, temporal postings {}", query.temporal_postings());
        let honest = IndexShardSource::new(&shards[0], EPOCH);
        let liar = Liar {
            honest: IndexShardSource::new(&shards[1], EPOCH),
            lie,
            told: AtomicBool::new(false),
        };
        let servers: Vec<Server> = (0..2)
            .map(|_| Server::bind(ServerConfig::default()).expect("bind shard server"))
            .collect();
        let handles: Vec<_> = servers.iter().map(Server::handle).collect();
        let spec = RemoteSpec::new(handles.iter().map(|h| h.local_addr().to_string()));
        thread::scope(|scope| {
            let _guard = ShutdownOnDrop(handles.clone());
            let mut servers = servers.into_iter();
            let (first, second) = (servers.next().unwrap(), servers.next().unwrap());
            scope.spawn(|| first.serve_shard(&honest).expect("serve ok"));
            scope.spawn(|| second.serve_shard(&liar).expect("serve ok"));

            let refused = matches!(lie, Lie::TotalPostings | Lie::Alphabet);
            let coordinator = match Coordinator::connect(Lev, &store, ALPHABET, &spec) {
                Err(DistribError::Topology(_)) if refused => return,
                Err(e) => panic!("{case}: connect failed: {e}"),
                Ok(_) if refused => panic!("{case}: the lie was accepted"),
                Ok(coordinator) => coordinator,
            };
            match coordinator.handle(query, Deadline::NONE) {
                Handled::Degraded { degraded, .. } => {
                    assert_eq!(degraded.missing_shards, vec![1], "{case}")
                }
                other => panic!("{case}: the lie went unnoticed: {other:?}"),
            }
            match coordinator.handle(query, Deadline::NONE) {
                Handled::Response(got) => assert_eq!(got.matches, want.matches, "{case}"),
                other => panic!("{case}: the next query was not answered: {other:?}"),
            }
        });
    }
}
