// The two kinds of election a benchmark run drives from outside the
// program, through its public API:
//  * a collection cluster: vc-only ballots, four VC nodes hosted on
//    net::ThreadNet (vc::VcNode over a store::MemoryBallotSource) or on
//    core::TcpLauncher's node processes, loaded by the BenchClient for a
//    fixed window; it measures the receipt path alone;
//  * a full election on net::ThreadNet, built by core::build_protocol_nodes
//    from a full EA setup, cast in closed loop, closed, tallied by the
//    trustees and BBs, then verified by client::Auditor passes over the
//    published board.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client.hpp"
#include "ea/ea.hpp"
#include "store/wal.hpp"

namespace perfbench {

class Tracer;

struct CollectionConfig {
  bool tcp = false;
  std::size_t n_ballots = 0;
  std::size_t m = 2;
  LoadShape load;  // its window includes the warm-up
  double warmup_s = 0;  // casts started earlier are not measured
  // Non-empty: every VC writes its WAL there, flushed per wal_fsync.
  std::string wal_dir;
  ddemos::store::FsyncPolicy wal_fsync = ddemos::store::FsyncPolicy::kNever;
  std::uint64_t seed = 1;
  std::size_t setup_reps = 3;
};

struct CollectionResult {
  std::vector<double> setup_s;  // one per EA setup
  double launch_s = 0;          // cluster bring-up
  double window_cpu_s = 0;      // CPU of this process and its node children
  double peak_rss_mb = 0;       // max over this process and node processes
  bool completed = false;
  ClientResult client;
  std::uint64_t events = 0;
  // TcpNet accounting rows, summed (zero on ThreadNet).
  std::uint64_t frames_sent = 0, frames_dropped = 0, reconnects = 0;
  std::uint64_t wal_bytes = 0;
};

CollectionResult run_collection(const CollectionConfig& cfg, Tracer* tracer);

struct ElectionConfig {
  std::size_t m = 2;
  std::size_t n_ballots = 0;
  std::size_t casts = 0;  // the first `casts` ballots vote
  std::size_t in_flight = 64;
  double voting_s = 1;  // election hours, from the cluster's start
  std::size_t audit_threads = 1;
  // Audit passes over the published board: at least audit_passes, and
  // more until audit_window_s has been spent.
  std::size_t audit_passes = 1;
  double audit_window_s = 0;
  std::uint64_t seed = 1;
};

struct ElectionResult {
  double setup_s = 0;
  bool completed = false;  // every BB published a result
  ClientResult client;
  // Phases from t_end, in seconds (the paper's Fig. 5c boundaries).
  double consensus_s = 0, push_s = 0, publish_s = 0, tally_s = 0;
  std::size_t bbs_agreeing = 0;  // BBs whose tally equals the expected one
  std::vector<std::uint64_t> expected_tally;  // receipts per option
  std::vector<double> audit_pass_s;
  std::size_t audit_failures = 0;
  double audit_read_s = 0;  // every ballot read through MajorityReader
  std::shared_ptr<const ddemos::ea::SetupArtifacts> artifacts;
  std::vector<CastTarget> targets;
};

ElectionResult run_election(const ElectionConfig& cfg, Tracer* tracer);

// Timed calls into the public crypto and WAL functions on an election's
// own keys, ballots and record sizes. Keys are the per-layer metric names.
std::map<std::string, double> micro_timings(const ElectionResult& election,
                                            const std::string& scratch_dir,
                                            std::uint64_t seed);

}  // namespace perfbench
