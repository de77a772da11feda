// The benchmark's own voting client: one sim::Process that keeps every
// cast of a run, in closed loop (a fixed number of casts in flight) or in
// a seeded open-loop Poisson stream, and checks each reply against the
// receipt printed on the ballot line it cast.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "crypto/rng.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

// One castable vote: the ballot line the voter chose and what the printed
// ballot says the receipt for it is.
struct CastTarget {
  ddemos::core::Serial serial = 0;
  ddemos::Bytes code;
  std::uint64_t receipt = 0;
  std::size_t option = 0;
};

struct LoadShape {
  std::size_t in_flight = 0;  // > 0: closed loop with this many casts open
  // > 0: open loop. Each second of the window gets round(rate_per_s)
  // arrivals at seeded uniform random times, so every run offers the same
  // count and the receipt rate moves only when the cluster falls behind.
  double rate_per_s = 0;
  // Casts are started only inside this window (seconds from the first).
  double window_s = 10;
  // A cast with no reply after this long is resubmitted to another VC.
  double patience_s = 2;
  std::uint64_t seed = 1;
};

// Everything the client measured, read after the host has stopped.
struct ClientResult {
  std::size_t attempted = 0;   // casts started
  std::size_t receipted = 0;   // casts with a matching receipt
  std::size_t bad_replies = 0;  // rejected casts or wrong receipts
  std::size_t duplicate_receipts = 0;  // extra OK replies (after resubmits)
  std::size_t resubmits = 0;
  bool exhausted = false;  // ran out of ballots before the window closed
  // One entry per receipted cast: when it started (its due time in open
  // loop) and when its receipt arrived, in seconds since the client
  // started, and the latency between the two.
  std::vector<double> start_s, receipt_s, latency_ms;
  std::vector<double> late_ms;     // generator lateness, one per cast
  std::vector<std::uint64_t> receipts_by_option;
};

class BenchClient final : public ddemos::sim::Process {
 public:
  BenchClient(std::vector<CastTarget> targets,
              std::vector<ddemos::sim::NodeId> vcs, LoadShape shape,
              Tracer* tracer);

  void on_start() override;
  void on_message(ddemos::sim::NodeId from,
                  const ddemos::net::Buffer& payload) override;
  void on_timer(std::uint64_t token) override;

  // The window has closed and every started cast has been answered.
  // Safe to call from the waiting thread while the client runs.
  bool drained() const { return drained_.load(std::memory_order_acquire); }
  // Only valid after the hosting runtime has stopped.
  ClientResult result() const;

 private:
  struct Cast {
    std::int64_t due_ns = -1;   // open loop: scheduled start
    std::int64_t sent_ns = -1;  // first send
    std::int64_t last_send_ns = -1;
    std::size_t vc = 0;
    bool done = false;
    std::uint64_t span = 0;  // traced runs: the cast's span id
  };

  std::int64_t now_ns() const { return ns_since(origin_, Clock::now()); }
  void start_cast(std::int64_t due_ns, std::int64_t now);
  void send_to(std::size_t idx, std::size_t vc, std::int64_t now);
  void arm_arrival();
  void sweep_patience(std::int64_t now);
  void update_drained();

  std::vector<CastTarget> targets_;
  std::vector<ddemos::sim::NodeId> vcs_;
  LoadShape shape_;
  Tracer* tracer_;
  ddemos::crypto::Rng rng_;
  Clock::time_point origin_;
  std::int64_t window_end_ns_ = 0;
  std::vector<std::int64_t> due_ns_;  // open loop: the arrival schedule
  std::uint64_t arrival_timer_ = 0, sweep_timer_ = 0;
  std::size_t next_ = 0;
  std::size_t sweep_from_ = 0;  // casts below this index are all answered
  std::size_t open_ = 0;
  bool window_closed_ = false;
  std::vector<Cast> casts_;
  ClientResult res_;
  std::atomic<bool> drained_{false};
};

}  // namespace perfbench
