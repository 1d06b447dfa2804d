//! # trajsearch-persist — versioned on-disk snapshots of store + index
//!
//! Every process start used to pay "re-ingest + rebuild": materialize the
//! [`TrajectoryStore`](traj::TrajectoryStore), rebuild the inverted index,
//! re-sort the temporal orderings. This crate turns cold start into
//! "open + checksum": [`Snapshot::write`] serializes the store and **any**
//! [`PostingSource`](trajsearch_core::PostingSource) into a single
//! versioned, checksummed file, and [`Snapshot::open`] loads it back as a
//! [`CompactIndex`](trajsearch_core::CompactIndex) — delta+varint postings
//! in one contiguous arena, decoded in a single validated pass, with a
//! footprint well below the in-memory
//! [`InvertedIndex`](trajsearch_core::InvertedIndex).
//!
//! ## Format guarantees
//!
//! * **Versioned** — a 4-byte magic (`TSNP`), a format version and a flags
//!   word lead the file; future-version and unknown-flag files are rejected
//!   with typed errors, never misparsed.
//! * **Checksummed** — a manifest maps each section to its byte range and
//!   CRC32; the header+manifest carry their own CRC. Checksums are
//!   verified **before** any payload is parsed, and every structural count
//!   is bounded against the actual bytes, so truncated or bit-flipped
//!   files fail with a typed [`SnapshotError`] instead of panicking or
//!   allocating unboundedly.
//! * **Canonical** — postings are sorted into ascending `(id, j)` order at
//!   write time, so the same logical index produces identical bytes
//!   whether it was held as an `InvertedIndex` or a `ShardedIndex` at any
//!   shard count.
//! * **Proven** — the reader walks each postings arena once, in lockstep
//!   with the decoded store, and accepts it only if it is record for record
//!   the store's occurrences in canonical order
//!   ([`CompactIndex::from_parts`](trajsearch_core::CompactIndex::from_parts)),
//!   so a file whose checksums agree but whose index lies is refused too.
//! * **Equivalent** — an engine over the reopened index answers every
//!   query byte-identically to the original layouts; the proptest suites
//!   in `tests/` gate this exactly like sharding was gated.
//!
//! ## Quick example
//!
//! ```
//! use trajsearch_core::{EngineBuilder, InvertedIndex, Query};
//! use trajsearch_persist::Snapshot;
//! use traj::{Trajectory, TrajectoryStore};
//! use wed::models::Lev;
//!
//! let mut store = TrajectoryStore::new();
//! store.push(Trajectory::untimed(vec![0, 1, 2, 3]));
//! let index = InvertedIndex::build(&store, 8);
//!
//! let path = std::env::temp_dir().join("trajsearch_doc_example.snap");
//! Snapshot::write(&path, &store, &index)?;
//!
//! // Later (a different process): reopen without rebuilding anything.
//! let snapshot = Snapshot::open(&path)?;
//! let (store, compact) = snapshot.into_parts();
//! let engine = EngineBuilder::new(Lev, &store, 8).build_with(compact);
//! let hits = engine.run(&Query::threshold(vec![1, 2], 0.5).build().unwrap()).unwrap();
//! assert_eq!(hits.matches.len(), 1);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), trajsearch_persist::SnapshotError>(())
//! ```

mod error;
mod format;
mod snapshot;

pub use error::{SnapshotError, SnapshotErrorKind};
pub use format::crc32;
pub use snapshot::{
    Snapshot, SnapshotInfo, FLAG_TEMPORAL, FORMAT_VERSION, HEADER_LEN, MAGIC, MANIFEST_ENTRY_LEN,
};
