// Traced runs: decorators that time the calls into each layer's public
// functions from outside the program. Nothing here is compiled into the
// library; an untraced run never constructs any of it.
//
//  * TracedVc wraps a vc::VcNode (as a sim::ShardedProcess) and times
//    on_message by MsgType; its TracingContext counts the node's sends and
//    bytes and stamps each payload Buffer with its send time, so the
//    receiving wrapper can read the mailbox wait off the shared buffer.
//  * TracedSource wraps a store::BallotDataSource and times find().
//  * TracingHost wraps a RuntimeHost so core::build_protocol_nodes builds
//    its VCs inside TracedVc without knowing about it.
//
// Spans are kept in memory and written out as JSON lines at the end of the
// run. The spans of one cast share its ballot serial; a handler span's
// parent is the client's cast span, a lookup's parent its handler span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/messages.hpp"
#include "sim/runtime.hpp"
#include "store/ballot_store.hpp"
#include "vc/vc_node.hpp"

namespace perfbench {

inline constexpr std::uint64_t kNoParent = 0;

// Origin of every span timestamp in the process.
std::chrono::steady_clock::time_point trace_epoch();
std::int64_t trace_now_ns();

struct Span {
  std::uint64_t id = 0, parent = kNoParent;
  const char* name = "";
  std::uint64_t serial = 0;
  std::int64_t start_ns = 0, end_ns = 0;
};

// Per-layer totals, summed over every traced VC of a run.
struct LayerTotals {
  std::map<ddemos::core::MsgType, std::uint64_t> handler_ns, handler_count;
  std::vector<std::int64_t> mailbox_wait_ns;
  std::uint64_t vc_sends = 0, vc_send_bytes = 0;
  std::uint64_t lookups = 0, lookup_ns = 0;
};

class Tracer {
 public:
  // Mailbox-wait matching: the sender stamps the payload allocation, the
  // receiving wrapper looks the stamp up by the same address.
  void stamp_send(const ddemos::net::Buffer& payload);
  void vc_sent(std::size_t bytes);

  std::uint64_t begin_cast(ddemos::core::Serial serial);
  std::uint64_t cast_span(ddemos::core::Serial serial);
  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }
  void end_span(std::uint64_t id, const char* name, std::uint64_t serial,
                std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t parent);

  void handled(ddemos::core::MsgType type, std::int64_t ns,
               std::int64_t mailbox_wait_ns);
  void looked_up(std::int64_t ns);
  std::int64_t take_wait(const ddemos::net::Buffer& payload,
                         std::int64_t now_ns);

  LayerTotals totals() const;
  std::size_t span_count() const;
  // Writes (or appends) every span as one JSON object per line; returns
  // false on I/O failure.
  bool write_spans(const std::string& path, bool append) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<const std::uint8_t*, std::int64_t> sent_at_;
  std::unordered_map<ddemos::core::Serial, std::uint64_t> cast_ids_;
  std::vector<Span> spans_;
  LayerTotals totals_;
  std::atomic<std::uint64_t> next_id_{0};
};

// The span a traced handler on this thread is currently inside.
std::uint64_t current_span();

class TracingContext final : public ddemos::sim::Context {
 public:
  explicit TracingContext(Tracer& tracer) : tracer_(tracer) {}
  void bind_real(ddemos::sim::Context* real) { real_ = real; }

  void send(ddemos::sim::NodeId to, ddemos::net::Buffer payload) override;
  void send_self(ddemos::net::Buffer payload) override;
  std::uint64_t set_timer(ddemos::sim::Duration after) override {
    return real_->set_timer(after);
  }
  ddemos::sim::TimePoint now() const override { return real_->now(); }
  ddemos::sim::NodeId self() const override { return real_->self(); }
  void charge(ddemos::sim::Duration cpu) override { real_->charge(cpu); }

 private:
  Tracer& tracer_;
  ddemos::sim::Context* real_ = nullptr;
};

class TracedVc final : public ddemos::sim::ShardedProcess {
 public:
  TracedVc(std::unique_ptr<ddemos::vc::VcNode> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer), tctx_(tracer) {}

  ddemos::vc::VcNode& inner() { return *inner_; }

  void on_start() override;
  void on_message(ddemos::sim::NodeId from,
                  const ddemos::net::Buffer& payload) override;
  void on_timer(std::uint64_t token) override { inner_->on_timer(token); }
  std::size_t shard_count() const override { return inner_->shard_count(); }
  std::size_t shard_of(ddemos::sim::NodeId from,
                       const ddemos::net::Buffer& payload) const override {
    return inner_->shard_of(from, payload);
  }

 private:
  std::unique_ptr<ddemos::vc::VcNode> inner_;
  Tracer& tracer_;
  TracingContext tctx_;
};

class TracedSource final : public ddemos::store::BallotDataSource {
 public:
  TracedSource(std::shared_ptr<ddemos::store::BallotDataSource> inner,
               Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::optional<ddemos::core::VcBallotInit> find(
      ddemos::core::Serial serial) override;
  std::size_t size() const override { return inner_->size(); }
  ddemos::core::Serial serial_at(std::size_t idx) override {
    return inner_->serial_at(idx);
  }
  std::optional<std::size_t> index_of(ddemos::core::Serial serial) override {
    return inner_->index_of(serial);
  }
  std::uint64_t page_faults() const override { return inner_->page_faults(); }

 private:
  std::shared_ptr<ddemos::store::BallotDataSource> inner_;
  Tracer& tracer_;
};

// Forwards everything to `real`, wrapping each VcNode added through it in
// a TracedVc; process(id) hands back the inner VcNode, so callers that
// downcast (build_protocol_nodes attaching a WAL) see the node itself.
class TracingHost final : public ddemos::sim::RuntimeHost {
 public:
  TracingHost(ddemos::sim::RuntimeHost& real, Tracer& tracer)
      : real_(real), tracer_(tracer) {}

  ddemos::sim::NodeId add_node(std::unique_ptr<ddemos::sim::Process> proc,
                               std::string name) override;
  ddemos::sim::Process& process(ddemos::sim::NodeId id) override;
  const std::string& node_name(ddemos::sim::NodeId id) const override {
    return real_.node_name(id);
  }
  std::size_t node_count() const override { return real_.node_count(); }
  void start() override { real_.start(); }
  void stop() override { real_.stop(); }
  ddemos::sim::TimePoint now() const override { return real_.now(); }
  using ddemos::sim::RuntimeHost::run_to_quiescence;
  bool run_to_quiescence(const std::function<bool()>& done,
                         const ddemos::sim::RunOptions& options) override {
    return real_.run_to_quiescence(done, options);
  }
  bool is_local(ddemos::sim::NodeId id) const override {
    return real_.is_local(id);
  }
  std::vector<std::size_t> shard_queue_high_water(
      ddemos::sim::NodeId id) const override {
    return real_.shard_queue_high_water(id);
  }
  std::uint64_t events_dispatched() const override {
    return real_.events_dispatched();
  }

 private:
  ddemos::sim::RuntimeHost& real_;
  Tracer& tracer_;
  std::map<ddemos::sim::NodeId, ddemos::vc::VcNode*> vcs_;
};

}  // namespace perfbench
