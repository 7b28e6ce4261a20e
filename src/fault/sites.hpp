#pragma once
// The injection-site catalog: every place the production pipeline can
// fail (or degrade) has a stable name here, and the chaos test sweeps
// this list firing each site at least once. Registry::configure rejects
// names outside the catalog, so a typo in --fault-spec / NGS_FAULT_SPEC
// fails loudly instead of silently injecting nothing.
//
// Naming convention: <layer>.<component>.<event>. A site name doubles
// as ngs::Error::site() for the failure it injects, so a typed error
// can always be traced back to the code path that raised it.
//
// Adding a site: declare the constant, append it to kAll, and give it a
// scenario in tests/test_chaos.cpp (the sweep fails on catalog entries
// it cannot fire).

#include <cstddef>

namespace ngs::fault::sites {

// --- io: FASTQ parsing (src/io/fastq_stream.cpp) -----------------------
/// Opening the input FASTQ fails (missing file, permissions).
inline constexpr const char* kFastqOpen = "io.fastq.open";
/// A read from the underlying stream fails mid-file (I/O error, not a
/// parse error — unaffected by --on-bad-record).
inline constexpr const char* kFastqRead = "io.fastq.read";
/// The next record is treated as malformed; exercises the
/// --on-bad-record skip/fail machinery end to end.
inline constexpr const char* kFastqMalformed = "io.fastq.malformed";

// --- index: persistent spectrum index (src/index/spectrum_index.cpp) ---
/// Opening the index file fails.
inline constexpr const char* kIndexOpen = "index.open";
/// mmap fails; the loader must fall back to the owned-buffer path.
inline constexpr const char* kIndexMmap = "index.mmap";
/// A payload read comes back short (truncated file appearing mid-read).
inline constexpr const char* kIndexShortRead = "index.short_read";
/// The header checksum validation fails (bit rot).
inline constexpr const char* kIndexChecksum = "index.checksum";
/// A write while serializing the index fails (disk full); the atomic
/// writer must leave no temp file and never touch the target.
inline constexpr const char* kIndexWrite = "index.write";
/// Mapping one shard of a sharded (v2) index fails; the lazy view must
/// fall back to an owned-buffer read with identical lookup results.
inline constexpr const char* kShardMmap = "index.shard_mmap";

// --- kspec: out-of-core spectrum build (src/kspec/radix.cpp) -----------
/// Appending instances to a spill bin fails (disk full) during a
/// bounded-memory (--memory-budget-mb) pass-1 build.
inline constexpr const char* kSpillWrite = "kspec.spill.write";
/// Reading a spill bin back for its per-bin sort/count fails.
inline constexpr const char* kSpillRead = "kspec.spill.read";

// --- core: correction pipeline (src/core/pipeline.cpp) -----------------
/// Opening the input stream fails transiently; fault::with_retry
/// recovers within the bounded retry budget.
inline constexpr const char* kOpenInputTransient = "core.open_input.transient";
/// A pass-2 batch correction throws; the pipeline degrades to per-read
/// salvage instead of killing the run.
inline constexpr const char* kPass2Batch = "core.pass2.batch";
/// A single read's correction throws during salvage; the read passes
/// through uncorrected and reads_failed is incremented.
inline constexpr const char* kPass2Read = "core.pass2.read";
/// Writing a corrected output batch fails; the tmp+rename writer must
/// leave no truncated output behind.
inline constexpr const char* kOutputWrite = "core.output.write";
/// The pipeline executor's dedicated reader task fails while running
/// ahead of compute (either pass). The failure must
/// tear the bounded queues down to a typed error on the calling thread —
/// never a hung pipeline.
inline constexpr const char* kPipelineReader = "core.pipeline.reader";
/// The pass-2 executor's order-restoring writer task fails
/// mid-stream; same teardown guarantee, and run_file's atomic output
/// protocol must leave no truncated FASTQ behind.
inline constexpr const char* kPipelineWriter = "core.pipeline.writer";

// --- mapreduce: in-process engine (src/mapreduce/job.hpp) --------------
/// A map task attempt fails (generalizes JobConfig::task_failure_rate;
/// the task is retried from its split up to max_task_attempts).
inline constexpr const char* kMapTask = "mapreduce.map_task";

// --- service: correction daemon (src/service/) -------------------------
/// accept() fails; the daemon must keep serving subsequent connections.
inline constexpr const char* kServiceAccept = "service.accept";
/// Reading a frame from a connection fails; only that connection winds
/// down, every other connection keeps streaming.
inline constexpr const char* kServiceRead = "service.read";
/// Writing a reply frame fails; same blast-radius guarantee as read.
inline constexpr const char* kServiceWrite = "service.write";
/// Verifying replacement indexes during a hot reload fails; the reload
/// is rejected and the old epoch keeps serving untouched.
inline constexpr const char* kServiceReload = "service.reload";
/// A worker's batch correction throws; the batch gets a typed ERROR
/// reply and the connection (and its other in-flight batches) survive.
inline constexpr const char* kServiceWorker = "service.worker";

/// Every registered site, in catalog order. The chaos sweep iterates
/// this list; Registry::configure validates against it.
inline constexpr const char* kAll[] = {
    kFastqOpen,      kFastqRead,  kFastqMalformed, kIndexOpen,
    kIndexMmap,      kIndexShortRead, kIndexChecksum, kIndexWrite,
    kShardMmap,      kSpillWrite, kSpillRead,
    kOpenInputTransient, kPass2Batch, kPass2Read,  kOutputWrite,
    kPipelineReader, kPipelineWriter,
    kMapTask,
    kServiceAccept,  kServiceRead, kServiceWrite, kServiceReload,
    kServiceWorker,
};

inline constexpr std::size_t kCount = sizeof(kAll) / sizeof(kAll[0]);

}  // namespace ngs::fault::sites
