#include "client.hpp"

#include <algorithm>
#include <cmath>

#include "core/messages.hpp"
#include "trace.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace ddemos;
using core::MsgType;
using core::VoteMsg;
using core::VoteReplyMsg;
using core::VoteReplyStatus;

namespace {
// Open-loop bookkeeping runs on this period: the patience sweep, and the
// wake-up that keeps the arrival timer honest.
constexpr sim::Duration kSweepUs = 5'000;
}  // namespace

BenchClient::BenchClient(std::vector<CastTarget> targets,
                         std::vector<sim::NodeId> vcs, LoadShape shape,
                         Tracer* tracer)
    : targets_(std::move(targets)),
      vcs_(std::move(vcs)),
      shape_(shape),
      tracer_(tracer),
      rng_(shape.seed ^ 0xc1e47ull) {
  if (vcs_.empty()) throw ProtocolError("perfbench: client needs a VC");
  if ((shape_.in_flight > 0) == (shape_.rate_per_s > 0)) {
    throw ProtocolError("perfbench: pick closed loop or open loop");
  }
  casts_.resize(targets_.size());
  res_.receipts_by_option.assign(1, 0);
  for (const CastTarget& t : targets_) {
    if (t.option >= res_.receipts_by_option.size()) {
      res_.receipts_by_option.resize(t.option + 1, 0);
    }
  }
}

void BenchClient::on_start() {
  origin_ = Clock::now();
  window_end_ns_ = static_cast<std::int64_t>(shape_.window_s * 1e9);
  if (shape_.in_flight > 0) {
    for (std::size_t i = 0; i < shape_.in_flight; ++i) start_cast(0, 0);
  } else {
    const auto per_second = static_cast<std::size_t>(std::lround(shape_.rate_per_s));
    const auto seconds = static_cast<std::size_t>(std::ceil(shape_.window_s));
    for (std::size_t sec = 0; sec < seconds; ++sec) {
      std::size_t first = due_ns_.size();
      for (std::size_t i = 0; i < per_second; ++i) {
        auto at = static_cast<std::int64_t>((sec + rng_.uniform01()) * 1e9);
        if (at < window_end_ns_) due_ns_.push_back(at);
      }
      std::sort(due_ns_.begin() + static_cast<std::ptrdiff_t>(first),
                due_ns_.end());
    }
    arm_arrival();
  }
  if (shape_.patience_s > 0) sweep_timer_ = ctx().set_timer(kSweepUs);
  update_drained();
}

void BenchClient::start_cast(std::int64_t due_ns, std::int64_t now) {
  if (next_ >= targets_.size()) {
    res_.exhausted = true;
    window_closed_ = true;
    return;
  }
  std::size_t idx = next_++;
  Cast& c = casts_[idx];
  c.due_ns = due_ns;
  c.sent_ns = now;
  ++open_;
  ++res_.attempted;
  res_.late_ms.push_back(static_cast<double>(now - due_ns) / 1e6);
  if (tracer_) c.span = tracer_->begin_cast(targets_[idx].serial);
  // A seeded random VC per cast: round robin phase-locked the closed loop
  // into runs whose p50 differed by a third at the same receipts/s.
  send_to(idx, rng_.below(vcs_.size()), now);
}

void BenchClient::send_to(std::size_t idx, std::size_t vc, std::int64_t now) {
  Cast& c = casts_[idx];
  c.vc = vc;
  c.last_send_ns = now;
  const CastTarget& t = targets_[idx];
  net::Buffer msg(VoteMsg{t.serial, t.code}.encode());
  if (tracer_) tracer_->stamp_send(msg);
  ctx().send(vcs_[vc], msg);
}

void BenchClient::arm_arrival() {
  std::int64_t now = now_ns();
  // Start every cast whose due time has passed; the lateness sample
  // records how far behind schedule the generator ran.
  while (!window_closed_ && next_ < due_ns_.size() && due_ns_[next_] <= now) {
    start_cast(due_ns_[next_], now);
  }
  if (next_ >= due_ns_.size()) {
    window_closed_ = true;
    return;
  }
  if (window_closed_) return;
  sim::Duration wait_us = (due_ns_[next_] - now + 999) / 1000;
  arrival_timer_ = ctx().set_timer(wait_us);
}

void BenchClient::on_timer(std::uint64_t token) {
  if (token == arrival_timer_) {
    arm_arrival();
  } else if (token == sweep_timer_) {
    sweep_patience(now_ns());
    if (!(window_closed_ && open_ == 0)) {
      sweep_timer_ = ctx().set_timer(kSweepUs);
    }
  }
  update_drained();
}

void BenchClient::sweep_patience(std::int64_t now) {
  const auto patience_ns = static_cast<std::int64_t>(shape_.patience_s * 1e9);
  while (sweep_from_ < next_ && casts_[sweep_from_].done) ++sweep_from_;
  for (std::size_t i = sweep_from_; i < next_; ++i) {
    Cast& c = casts_[i];
    if (c.done || now - c.last_send_ns < patience_ns) continue;
    ++res_.resubmits;
    send_to(i, (c.vc + 1) % vcs_.size(), now);
  }
}

void BenchClient::on_message(sim::NodeId, const net::Buffer& payload) {
  std::int64_t now = now_ns();
  VoteReplyMsg m;
  try {
    Reader r(payload.view());
    if (static_cast<MsgType>(r.u8()) != MsgType::kVoteReply) return;
    m = VoteReplyMsg::decode(r);
  } catch (const CodecError&) {
    ++res_.bad_replies;
    return;
  }
  if (targets_.empty() || m.serial < targets_.front().serial) return;
  std::size_t idx = static_cast<std::size_t>(m.serial - targets_.front().serial);
  if (idx >= next_ || targets_[idx].serial != m.serial) return;
  Cast& c = casts_[idx];
  const CastTarget& t = targets_[idx];
  bool ok = m.status == VoteReplyStatus::kOk && m.receipt == t.receipt;
  if (c.done) {
    // A resubmitted cast may be answered twice; the second answer must
    // still carry the printed receipt.
    if (ok) {
      ++res_.duplicate_receipts;
    } else {
      ++res_.bad_replies;
    }
    return;
  }
  c.done = true;
  --open_;
  if (!ok) {
    ++res_.bad_replies;
  } else {
    ++res_.receipted;
    ++res_.receipts_by_option[t.option];
    std::int64_t start = shape_.in_flight > 0 ? c.sent_ns : c.due_ns;
    res_.start_s.push_back(static_cast<double>(start) / 1e9);
    res_.receipt_s.push_back(static_cast<double>(now) / 1e9);
    res_.latency_ms.push_back(static_cast<double>(now - start) / 1e6);
    if (tracer_) {
      std::int64_t base = ns_since(trace_epoch(), origin_);
      tracer_->end_span(c.span, "client.cast", t.serial, base + start,
                        base + now, kNoParent);
    }
  }
  if (shape_.in_flight > 0) {
    if (!window_closed_ && now >= window_end_ns_) window_closed_ = true;
    // Closed loop: the freed slot is due now; lateness is the client's
    // own turnaround until the next VOTE leaves.
    if (!window_closed_) start_cast(now, now_ns());
  }
  update_drained();
}

void BenchClient::update_drained() {
  if (window_closed_ && open_ == 0) {
    drained_.store(true, std::memory_order_release);
  }
}

ClientResult BenchClient::result() const { return res_; }

}  // namespace perfbench
