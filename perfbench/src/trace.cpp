#include "trace.hpp"

#include <cstdio>

namespace perfbench {

using namespace ddemos;
using core::MsgType;

namespace {

thread_local std::uint64_t tl_current_span = kNoParent;

const char* handler_span_name(MsgType type) {
  switch (type) {
    case MsgType::kVote: return "vc.vote";
    case MsgType::kEndorse: return "vc.endorse";
    case MsgType::kEndorsement: return "vc.endorsement";
    case MsgType::kVoteP: return "vc.vote_p";
    default: return "vc.other";
  }
}

bool per_ballot(MsgType type) {
  return type == MsgType::kVote || type == MsgType::kEndorse ||
         type == MsgType::kEndorsement || type == MsgType::kVoteP;
}

}  // namespace

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

std::uint64_t current_span() { return tl_current_span; }

void Tracer::stamp_send(const net::Buffer& payload) {
  std::int64_t now = trace_now_ns();
  std::scoped_lock lk(mu_);
  sent_at_[payload.data()] = now;
}

void Tracer::vc_sent(std::size_t bytes) {
  std::scoped_lock lk(mu_);
  ++totals_.vc_sends;
  totals_.vc_send_bytes += bytes;
}

std::uint64_t Tracer::begin_cast(core::Serial serial) {
  std::uint64_t id = new_id();
  std::scoped_lock lk(mu_);
  cast_ids_[serial] = id;
  return id;
}

std::uint64_t Tracer::cast_span(core::Serial serial) {
  std::scoped_lock lk(mu_);
  auto it = cast_ids_.find(serial);
  return it == cast_ids_.end() ? kNoParent : it->second;
}

void Tracer::end_span(std::uint64_t id, const char* name, std::uint64_t serial,
                      std::int64_t start_ns, std::int64_t end_ns,
                      std::uint64_t parent) {
  std::scoped_lock lk(mu_);
  spans_.push_back(Span{id, parent, name, serial, start_ns, end_ns});
}

void Tracer::handled(MsgType type, std::int64_t ns,
                     std::int64_t mailbox_wait_ns) {
  std::scoped_lock lk(mu_);
  totals_.handler_ns[type] += static_cast<std::uint64_t>(ns);
  ++totals_.handler_count[type];
  if (mailbox_wait_ns >= 0) totals_.mailbox_wait_ns.push_back(mailbox_wait_ns);
}

void Tracer::looked_up(std::int64_t ns) {
  std::scoped_lock lk(mu_);
  ++totals_.lookups;
  totals_.lookup_ns += static_cast<std::uint64_t>(ns);
}

std::int64_t Tracer::take_wait(const net::Buffer& payload, std::int64_t now) {
  std::scoped_lock lk(mu_);
  auto it = sent_at_.find(payload.data());
  // Multicast recipients share one allocation, so the stamp stays until
  // the address is stamped again by its next sender.
  return it == sent_at_.end() ? -1 : now - it->second;
}

LayerTotals Tracer::totals() const {
  std::scoped_lock lk(mu_);
  return totals_;
}

std::size_t Tracer::span_count() const {
  std::scoped_lock lk(mu_);
  return spans_.size();
}

bool Tracer::write_spans(const std::string& path, bool append) const {
  std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (!f) return false;
  std::scoped_lock lk(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"serial\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.serial),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void TracingContext::send(sim::NodeId to, net::Buffer payload) {
  tracer_.stamp_send(payload);
  tracer_.vc_sent(payload.size());
  real_->send(to, std::move(payload));
}

void TracingContext::send_self(net::Buffer payload) {
  tracer_.stamp_send(payload);
  real_->send_self(std::move(payload));
}

void TracedVc::on_start() {
  tctx_.bind_real(&ctx());
  inner_->bind(&tctx_);
  inner_->on_start();
}

void TracedVc::on_message(sim::NodeId from, const net::Buffer& payload) {
  std::int64_t start = trace_now_ns();
  std::int64_t wait = tracer_.take_wait(payload, start);
  MsgType type = MsgType::kVote;
  core::Serial serial = 0;
  try {
    Reader r(payload.view());
    type = static_cast<MsgType>(r.u8());
    if (per_ballot(type)) serial = r.u64();
  } catch (const CodecError&) {
    // Malformed input goes to the node unchanged; it rejects it itself.
  }
  std::uint64_t parent = serial ? tracer_.cast_span(serial) : kNoParent;
  std::uint64_t id = tracer_.new_id();
  std::uint64_t outer = tl_current_span;
  tl_current_span = id;
  inner_->on_message(from, payload);
  tl_current_span = outer;
  std::int64_t end = trace_now_ns();
  tracer_.end_span(id, handler_span_name(type), serial, start, end, parent);
  tracer_.handled(type, end - start, wait);
}

std::optional<core::VcBallotInit> TracedSource::find(core::Serial serial) {
  std::uint64_t id = tracer_.new_id();
  std::int64_t start = trace_now_ns();
  auto out = inner_->find(serial);
  std::int64_t end = trace_now_ns();
  tracer_.end_span(id, "store.lookup", serial, start, end, current_span());
  tracer_.looked_up(end - start);
  return out;
}

sim::NodeId TracingHost::add_node(std::unique_ptr<sim::Process> proc,
                                  std::string name) {
  if (auto* vc = dynamic_cast<vc::VcNode*>(proc.get())) {
    proc.release();
    std::unique_ptr<vc::VcNode> owned(vc);
    auto traced = std::make_unique<TracedVc>(std::move(owned), tracer_);
    vc::VcNode* inner = &traced->inner();
    sim::NodeId id = real_.add_node(std::move(traced), std::move(name));
    vcs_[id] = inner;
    return id;
  }
  return real_.add_node(std::move(proc), std::move(name));
}

sim::Process& TracingHost::process(sim::NodeId id) {
  auto it = vcs_.find(id);
  if (it != vcs_.end()) return *it->second;
  return real_.process(id);
}

}  // namespace perfbench
