//! The shard-server role: serving postings lists, the remote half of the
//! [`PostingSource`](trajsearch_core::PostingSource) contract, over the
//! wire.
//!
//! A process holding one [`IndexShard`] runs
//! [`Server::serve_shard`](crate::Server::serve_shard) and answers the two
//! shard RPCs from [`crate::proto`], `shard_info` and `shard_postings`.
//! Shard RPCs are cheap slice
//! lookups, so they are answered **inline on the reader thread** — no
//! admission queue, no worker pool, replies stream back in request order
//! per connection (cross-connection parallelism comes from one reader per
//! connection).
//!
//! Two guards run before any data is touched:
//!
//! * **Epoch** — every data RPC echoes the epoch learned from
//!   `shard_info`; a mismatch is a typed `epoch_mismatch` error, so a
//!   coordinator can never silently mix postings from two index builds.
//! * **Deadline** — an RPC carrying `deadline_ms` whose budget elapsed
//!   before handling began (readers drain pipelined frames in order, so a
//!   backlog ages the later frames) is answered `deadline_exceeded`
//!   without touching the index.

use crate::proto::{Reply, Request, ServerError, ServerErrorKind, ShardInfo};
use std::time::{Duration, Instant};
use trajsearch_core::{IndexShard, Posting};
use wed::Sym;

/// What a shard server serves: postings lists plus self-description (a
/// coordinator derives frequencies, spans and by-departure candidates from
/// the store it holds and the postings it fetched). Implementations must be
/// total over hostile inputs — out-of-alphabet symbols have no postings
/// (empty results), never a panic.
pub trait ShardSource: Sync {
    fn info(&self) -> ShardInfo;
    /// The shard's build epoch; data RPCs echoing a different value are
    /// rejected before reaching the other methods.
    fn epoch(&self) -> u64 {
        self.info().epoch
    }
    /// Postings lists in build order, parallel to `syms`.
    fn postings(&self, syms: &[Sym]) -> Vec<Vec<Posting>>;
}

/// [`ShardSource`] over an in-memory [`IndexShard`]. The `epoch` is
/// caller-assigned (a build counter, a dataset hash — anything that changes
/// when the index changes).
pub struct IndexShardSource<'a> {
    shard: &'a IndexShard,
    epoch: u64,
}

impl<'a> IndexShardSource<'a> {
    pub fn new(shard: &'a IndexShard, epoch: u64) -> IndexShardSource<'a> {
        IndexShardSource { shard, epoch }
    }

    fn in_alphabet(&self, q: Sym) -> bool {
        (q as usize) < self.shard.alphabet_size()
    }
}

impl ShardSource for IndexShardSource<'_> {
    fn info(&self) -> ShardInfo {
        ShardInfo {
            shard_id: self.shard.shard_id() as u32,
            num_shards: self.shard.num_shards() as u32,
            epoch: self.epoch,
            alphabet_size: self.shard.alphabet_size() as u64,
            local_trajectories: self.shard.num_local_trajectories() as u64,
            num_trajectories: self.shard.num_trajectories() as u64,
            total_postings: self.shard.total_postings() as u64,
            size_bytes: self.shard.size_bytes() as u64,
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn postings(&self, syms: &[Sym]) -> Vec<Vec<Posting>> {
        syms.iter()
            .map(|&q| {
                if self.in_alphabet(q) {
                    self.shard.postings(q).to_vec()
                } else {
                    Vec::new()
                }
            })
            .collect()
    }
}

/// Classifies how a shard RPC was answered, for the server's metrics.
pub(crate) enum RpcDisposition {
    Ok,
    TimedOut,
    Invalid,
}

/// Answers one shard RPC (epoch/deadline guards included). `arrived` is
/// when the frame was read off the socket — the deadline epoch.
pub(crate) fn answer_shard_rpc<S: ShardSource>(
    source: &S,
    request: Request,
    arrived: Instant,
) -> (Reply, RpcDisposition) {
    let (id, epoch, deadline_ms, syms) = match request {
        Request::ShardInfo { id } => {
            return (
                Reply::ShardInfo {
                    id,
                    info: source.info(),
                },
                RpcDisposition::Ok,
            )
        }
        Request::ShardPostings {
            id,
            epoch,
            deadline_ms,
            syms,
            ..
        } => (id, epoch, deadline_ms, syms),
        other => {
            return (
                Reply::Error {
                    id: Some(other.id()),
                    error: ServerError::new(
                        ServerErrorKind::InvalidQuery,
                        "not a shard RPC; this entry point only answers shard_* requests",
                    ),
                },
                RpcDisposition::Invalid,
            )
        }
    };
    if epoch != source.epoch() {
        return (
            Reply::Error {
                id: Some(id),
                error: ServerError::new(
                    ServerErrorKind::EpochMismatch,
                    format!(
                        "request epoch {epoch} does not match shard epoch {} — re-run shard_info",
                        source.epoch()
                    ),
                ),
            },
            RpcDisposition::Invalid,
        );
    }
    if let Some(ms) = deadline_ms {
        if arrived.elapsed() >= Duration::from_millis(ms) {
            return (
                Reply::Error {
                    id: Some(id),
                    error: ServerError::new(
                        ServerErrorKind::DeadlineExceeded,
                        "shard RPC deadline expired before handling began",
                    ),
                },
                RpcDisposition::TimedOut,
            );
        }
    }
    let reply = Reply::ShardPostings {
        id,
        lists: source.postings(&syms),
    };
    (reply, RpcDisposition::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj::{Trajectory, TrajectoryStore};

    fn shard() -> IndexShard {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(vec![0, 1, 2], vec![10.0, 11.0, 12.0]));
        s.push(Trajectory::new(vec![2, 1], vec![5.0, 6.0]));
        s.push(Trajectory::new(vec![3, 0], vec![20.0, 21.0]));
        s.push(Trajectory::new(vec![1, 1, 3], vec![1.0, 2.0, 3.0]));
        IndexShard::build(&s, 4, 1, 2)
    }

    #[test]
    fn source_reports_the_shard_faithfully() {
        let shard = shard();
        let src = IndexShardSource::new(&shard, 7);
        let info = src.info();
        assert_eq!(info.shard_id, 1);
        assert_eq!(info.num_shards, 2);
        assert_eq!(info.epoch, 7);
        assert_eq!(info.num_trajectories, 4);
        assert_eq!(info.local_trajectories, 2);
        assert_eq!(src.postings(&[1]), vec![shard.postings(1).to_vec()]);
    }

    #[test]
    fn out_of_alphabet_symbols_are_empty_not_a_panic() {
        let shard = shard();
        let src = IndexShardSource::new(&shard, 7);
        assert_eq!(src.postings(&[99]), vec![Vec::new()]);
    }

    #[test]
    fn epoch_mismatch_and_zero_deadline_are_typed() {
        let shard = shard();
        let src = IndexShardSource::new(&shard, 7);
        let (reply, _) = answer_shard_rpc(
            &src,
            Request::ShardPostings {
                id: 1,
                epoch: 8,
                deadline_ms: None,
                trace_id: None,
                syms: vec![1],
            },
            Instant::now(),
        );
        match reply {
            Reply::Error { id, error } => {
                assert_eq!(id, Some(1));
                assert_eq!(error.kind, ServerErrorKind::EpochMismatch);
            }
            other => panic!("expected epoch mismatch, got {other:?}"),
        }
        // A zero budget has always already expired — the deterministic
        // deadline hook.
        let (reply, _) = answer_shard_rpc(
            &src,
            Request::ShardPostings {
                id: 2,
                epoch: 7,
                deadline_ms: Some(0),
                trace_id: None,
                syms: vec![1],
            },
            Instant::now(),
        );
        match reply {
            Reply::Error { error, .. } => {
                assert_eq!(error.kind, ServerErrorKind::DeadlineExceeded)
            }
            other => panic!("expected deadline exceeded, got {other:?}"),
        }
    }
}
